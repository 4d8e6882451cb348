(* In-process half of the benchmark (run.py is the other half).

   wapbench gen --set webapps|plugins|vfront --seed N --out DIR
     Writes the workload's corpus packages under DIR/<name>-<version>/,
     over the files of an earlier generation (creating thousands of
     files anew is far slower, and noisier, than rewriting them on some
     filesystems), removes stale .php files, and writes their ground
     truth (seeded snippet file and line ranges) to DIR/truth.json.

   wapbench trace --mode tree|files|flow|serve|engine --wap WAP --jobs J
                  --trace-out FILE [--spans off] [--export-out FILE]
                  [--script FILE] PATH...
     Replays the workload with a span around every call into a layer
     (name, start, end, parent span, op id, words allocated) kept in
     memory and written at exit as a Chrome trace-event file whose
     "otherData" also carries the counters, the wall time of the
     replayed operations and the in-process consistency checks.  With
     [--spans off] it only replays the operations (no layer
     decomposition), for the untraced baseline. *)

module J = Wap_report.Json
module An = Wap_taint.Analyzer
module Trace = Wap_taint.Trace
module Tool = Wap_core.Tool

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Spans and counters                                                  *)

type span = {
  id : int;
  name : string;
  parent : int;
  op : int;
  args : (string * string) list;
  t0 : float;
  a0 : float;
  mutable t1 : float;
  mutable alloc : float;
}

let enabled = ref true
let finished : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 1
let next_op = ref 0
let cur_op = ref 0
let counters : (string, float) Hashtbl.t = Hashtbl.create 16

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let with_span ?(args = []) name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> 0 in
    let a0 = alloc_words () in
    let s =
      { id = !next_id; name; parent; op = !cur_op; args; t0 = now (); a0;
        t1 = 0.; alloc = 0. }
    in
    incr next_id;
    stack := s :: !stack;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- now ();
        s.alloc <- alloc_words () -. s.a0;
        stack := List.tl !stack;
        finished := s :: !finished)
  end

(* One operation of the replayed workload: a root span whose id tags
   every span recorded under it. *)
let with_op name f =
  incr next_op;
  cur_op := !next_op;
  with_span ("op." ^ name) f

let count name n =
  if !enabled then
    Hashtbl.replace counters name
      (n +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let file_arg path = [ ("file", path) ]

(* ------------------------------------------------------------------ *)
(* Layer calls                                                         *)

let read_file = Wap_php.Io.read_file

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* the CLI's expansion of its arguments: directories recurse in sorted
   order to their .php files, named files pass through *)
let rec expand path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun e -> expand (Filename.concat path e))
  else if Filename.check_suffix path ".php" then [ path ]
  else []

let expand_all paths =
  List.concat_map
    (fun p -> if Sys.is_directory p then expand p else [ p ])
    paths

let cli_startup wap =
  with_span "cli.startup" @@ fun () ->
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process wap [| wap; "--version" |] devnull devnull devnull
  in
  let _, status = Unix.waitpid [] pid in
  Unix.close devnull;
  if status <> Unix.WEXITED 0 then failwith "wap --version failed"

(* Tool.create with the CLI's defaults (WAPe, seed 2016, no weapons),
   split into its two layer calls *)
let make_tool () =
  with_span "core.tool_create" @@ fun () ->
  let v = Wap_core.Version.Wape and seed = 2016 in
  let dataset =
    with_span "mining.dataset" (fun () -> Wap_core.Training.dataset_for ~seed v)
  in
  let config =
    Wap_mining.Predictor.with_dynamic_symptoms
      (Wap_core.Version.predictor_config v)
      []
  in
  let predictor =
    with_span "mining.train" (fun () ->
        Wap_mining.Predictor.train ~seed config dataset)
  in
  {
    Tool.version = v;
    specs = Wap_catalog.Catalog.specs_for (Wap_core.Version.classes v);
    predictor;
    weapons = [];
  }

let read_sources paths =
  with_span "cli.read" (fun () -> List.map (fun p -> (p, read_file p)) paths)

(* What `wap analyze --json --jobs J PATHS` does, layer by layer. *)
let analyze ~wap ~jobs paths =
  cli_startup wap;
  let tool = make_tool () in
  let sources = read_sources paths in
  let cpu0 = Sys.time () in
  let outcome =
    with_span "engine.scan" (fun () ->
        Tool.Scan.run tool
          (Tool.Scan.request ~jobs ~cache:(Wap_engine.Cache.create ()) sources))
  in
  count "engine.cpu_s" (Sys.time () -. cpu0);
  let result = outcome.Tool.Scan.result in
  let json =
    with_span "core.export" (fun () -> Wap_core.Export.result_to_string result)
  in
  count "core.export_bytes" (float_of_int (String.length json + 1));
  (tool, sources, result, json ^ "\n")

let classify (tool : Tool.t) candidates =
  with_span "mining.classify" @@ fun () ->
  List.iter
    (fun c ->
      ignore (Wap_mining.Predictor.is_false_positive tool.Tool.predictor c))
    candidates;
  count "mining.classify_calls" (float_of_int (List.length candidates))

let parse_unit (path, src) =
  let args = file_arg path in
  let program =
    match
      with_span ~args "php.lex" (fun () ->
          Wap_php.Lexer.tokenize_buf ~file:path src)
    with
    | exception Wap_php.Lexer.Error _ -> []
    | buf ->
        count "php.tokens" (float_of_int (Wap_php.Token_buf.length buf));
        with_span ~args "php.parse" (fun () ->
            try Wap_php.Parser.parse_buf buf
            with Wap_php.Parser.Error _ ->
              fst (Wap_php.Parser.parse_string_tolerant ~file:path src))
  in
  { An.path; program }

(* pass 3 of one file: splice its includes and lower it, then execute *)
let toplevel st ~units (u : An.file_unit) =
  let args = file_arg u.An.path in
  let body =
    with_span ~args "ir.lower" (fun () ->
        let program =
          An.splice_includes ~units ~depth:0 ~visited:[ u.An.path ] u.An.program
        in
        Wap_ir.Lower.program ~specs:(An.state_specs st)
          ~lookup:(An.state_lookup st) program)
  in
  count "ir.instrs"
    (float_of_int
       (Array.fold_left (fun n b -> n + Array.length b) 0 body.Wap_ir.Ir.blocks));
  with_span ~args "ir.exec" (fun () ->
      Wap_ir.Exec.run ~specs:(An.state_specs st)
        ~summaries:(An.state_summaries st) ~file:u.An.path body)

let steps_of (c : Trace.candidate) =
  List.fold_left (fun n o -> n + List.length o.Trace.steps) 0 c.Trace.origins

(* The engine's fused pipeline, one layer call at a time, on one domain:
   lex and parse every file, pass 1 summaries, pass 2 function bodies,
   pass 3 lowered top levels, finalize.  Returns the pass state, the
   units and the finalized candidates. *)
let decompose ~specs sources =
  let units = List.map parse_unit sources in
  let st = An.project_state ~specs () in
  List.iter
    (fun u ->
      with_span ~args:(file_arg u.An.path) "taint.pass1" (fun () ->
          An.summarize_file st u))
    units;
  let pass2 =
    List.concat_map
      (fun u ->
        with_span ~args:(file_arg u.An.path) "taint.pass2" (fun () ->
            An.analyze_file_functions st u))
      units
  in
  let pass3 = List.concat_map (toplevel st ~units) units in
  let final =
    with_span "taint.finalize" (fun () -> An.finalize ~units (pass2 @ pass3))
  in
  count "taint.steps_retained"
    (float_of_int (List.fold_left (fun n (_, c) -> n + steps_of c) 0 final));
  (st, units, List.map snd final)

let keys cs = List.sort compare (List.map Trace.dedup_key cs)

(* ------------------------------------------------------------------ *)
(* Trace output                                                        *)

let checks : (string * J.t) list ref = ref []
let check name ok = checks := (name, J.Bool ok) :: !checks

let write_trace path ~start ~other =
  let us t = J.Float (1e6 *. (t -. start)) in
  let event s =
    J.Obj
      [
        ("name", J.Str s.name);
        ("cat", J.Str (List.hd (String.split_on_char '.' s.name)));
        ("ph", J.Str "X");
        ("ts", us s.t0);
        ("dur", J.Float (1e6 *. (s.t1 -. s.t0)));
        ("pid", J.Int 1);
        ("tid", J.Int 1);
        ( "args",
          J.Obj
            ([ ("id", J.Int s.id); ("parent", J.Int s.parent);
               ("op", J.Int s.op); ("alloc_w", J.Float s.alloc) ]
            @ List.map (fun (k, v) -> (k, J.Str v)) s.args) );
      ]
  in
  let counters =
    Hashtbl.fold (fun k v acc -> (k, J.Float v) :: acc) counters []
    |> List.sort compare
  in
  write_file path
    (J.to_string ~indent:false
       (J.Obj
          [
            ("traceEvents", J.List (List.rev_map event !finished));
            ("displayTimeUnit", J.Str "ms");
            ( "otherData",
              J.Obj
                (("counters", J.Obj counters)
                :: ("checks", J.Obj (List.rev !checks))
                :: other) );
          ]))

(* Wall time of the replayed operations, spans on or off; the untraced
   replay runs in its own process so that process-wide memo tables (the
   engine's lowered-IR memo) do not carry over between the two. *)
let replay_s = ref 0.

let timed f =
  let t0 = now () in
  let r = f () in
  replay_s := !replay_s +. (now () -. t0);
  r

(* tree-scan, long-flow: one analyze of the whole input, then the
   layer-by-layer decomposition of the same sources *)
let mode_project ~wap ~jobs ~export_out paths =
  let paths = expand_all paths in
  let tool, sources, result, json =
    timed (fun () -> with_op "analyze" (fun () -> analyze ~wap ~jobs paths))
  in
  Option.iter (fun p -> write_file p json) export_out;
  if !enabled then
    with_op "layers" (fun () ->
        let _, _, final = decompose ~specs:tool.Tool.specs sources in
        let final = Tool.dedup_candidates final in
        classify tool final;
        check "decomposition_matches_engine"
          (keys final = keys result.Tool.candidates))

(* file-burst: one analyze (and decomposition) per file *)
let mode_files ~wap ~jobs paths =
  List.iter
    (fun p ->
      let tool, sources, result, _ =
        timed (fun () -> with_op "analyze" (fun () -> analyze ~wap ~jobs [ p ]))
      in
      if !enabled then
        with_op "layers" (fun () ->
            let _, _, final = decompose ~specs:tool.Tool.specs sources in
            let final = Tool.dedup_candidates final in
            classify tool final;
            check "decomposition_matches_engine"
              (keys final = keys result.Tool.candidates)))
    (expand_all paths)

(* edit-loop script: "<kind>\t<path>\t<bytes>\n<text>" per edit *)
let read_script path =
  let ic = open_in_bin path in
  let rec loop acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | header -> (
        match String.split_on_char '\t' header with
        | [ kind; file; n ] ->
            let text = really_input_string ic (int_of_string n) in
            loop ((kind, file, text) :: acc)
        | _ -> failwith ("bad script line: " ^ header))
  in
  let edits = loop [] in
  close_in ic;
  edits

let uri_of path = "file:///vfront/" ^ Filename.basename path

let msg ?id meth params =
  J.Obj
    ([ ("jsonrpc", J.Str "2.0") ]
    @ (match id with Some i -> [ ("id", J.Int i) ] | None -> [])
    @ [ ("method", J.Str meth); ("params", params) ])

let doc uri = ("textDocument", J.Obj [ ("uri", J.Str uri) ])

let published outs =
  List.length
    (List.filter
       (fun m ->
         J.member "method" m = Some (J.Str "textDocument/publishDiagnostics"))
       outs)

let is_error outs = List.exists (fun m -> J.member "error" m <> None) outs

(* the code-action range: the last line of the edited text, which the
   edit just wrote *)
let last_line text = List.length (String.split_on_char '\n' text) - 2

(* edit-loop, daemon side: didOpen of every file, then each edit as a
   didChange followed by a codeAction at the edited line, through
   Server.handle *)
let mode_serve ~wap ~jobs ~script paths =
  let paths = expand_all paths in
  let edits = read_script script in
  let ndocs = float_of_int (List.length paths) in
  let server =
    with_op "open" (fun () ->
        cli_startup wap;
        let tool = make_tool () in
        let server = Wap_serve.Server.create ~jobs tool in
        ignore (Wap_serve.Server.handle server (msg ~id:0 "initialize" (J.Obj [])));
        let ok = ref true in
        List.iter
          (fun (p, text) ->
            let outs =
              with_span ~args:(file_arg p) "serve.didopen" (fun () ->
                  Wap_serve.Server.handle server
                    (msg "textDocument/didOpen"
                       (J.Obj
                          [ ( "textDocument",
                              J.Obj
                                [ ("uri", J.Str (uri_of p));
                                  ("languageId", J.Str "php");
                                  ("version", J.Int 1);
                                  ("text", J.Str text) ] ) ])))
            in
            if is_error outs then ok := false)
          (read_sources paths);
        check "didopen_ok" !ok;
        server)
  in
  let ok = ref true in
  timed (fun () ->
      List.iteri
        (fun i (_, file, text) ->
          with_op "edit" (fun () ->
              let uri = uri_of file in
              let outs =
                with_span "serve.didchange" (fun () ->
                    Wap_serve.Server.handle server
                      (msg "textDocument/didChange"
                         (J.Obj
                            [ doc uri;
                              ( "contentChanges",
                                J.List [ J.Obj [ ("text", J.Str text) ] ] ) ])))
              in
              count "serve.docs_rendered" ndocs;
              count "serve.docs_published" (float_of_int (published outs));
              let pos =
                J.Obj [ ("line", J.Int (last_line text)); ("character", J.Int 0) ]
              in
              let outs' =
                with_span "serve.codeaction" (fun () ->
                    Wap_serve.Server.handle server
                      (msg ~id:(i + 1) "textDocument/codeAction"
                         (J.Obj
                            [ doc uri;
                              ("range", J.Obj [ ("start", pos); ("end", pos) ]);
                              ("context", J.Obj [ ("diagnostics", J.List []) ]) ])))
              in
              if is_error (outs @ outs') then ok := false))
        edits);
  check "edits_ok" !ok

(* edit-loop, engine side: the same edit script on a bare session, with
   the re-classification every edit triggers, then the layers each edit
   reaches (re-lex/parse the file; pass 3 of a body edit; the whole
   pipeline after a declaration edit) *)
let mode_engine ~jobs ~script paths =
  let paths = expand_all paths in
  let edits = read_script script in
  let tool = make_tool () in
  let sources = read_sources paths in
  let req =
    Wap_engine.Session.request ~jobs ~fingerprint:(Tool.Scan.fingerprint tool)
      ~specs:tool.Tool.specs sources
  in
  let diagnostics s =
    with_span "engine.diagnostics" @@ fun () ->
    List.concat_map
      (fun p ->
        Tool.dedup_candidates
          (List.map snd (Wap_engine.Session.diagnostics s ~path:p)))
      (Wap_engine.Session.paths s)
  in
  timed (fun () ->
      let s, before =
        with_op "engine_open" (fun () ->
            let s =
              with_span "engine.open" (fun () ->
                  Wap_engine.Session.open_project req)
            in
            (s, diagnostics s))
      in
      List.iter
        (fun (_, file, text) ->
          with_op "engine_edit" (fun () ->
              let reran =
                with_span "engine.update" (fun () ->
                    Wap_engine.Session.update_file s ~path:file text)
              in
              count "engine.reanalyzed_files" (float_of_int (List.length reran));
              classify tool (diagnostics s)))
        edits;
      check "edits_keep_findings" (keys before = keys (diagnostics s)));
  if !enabled then begin
    let texts = Hashtbl.create 512 in
    List.iter (fun (p, t) -> Hashtbl.replace texts p t) sources;
    let current () = List.map (fun p -> (p, Hashtbl.find texts p)) paths in
    let project =
      ref (with_op "layers" (fun () -> decompose ~specs:tool.Tool.specs (current ())))
    in
    List.iter
      (fun (kind, file, text) ->
        Hashtbl.replace texts file text;
        with_op "layers_edit" (fun () ->
            if kind = "decl" then
              project := decompose ~specs:tool.Tool.specs (current ())
            else begin
              let st, units, final = !project in
              let u = parse_unit (file, text) in
              let units =
                List.map (fun v -> if v.An.path = file then u else v) units
              in
              ignore (toplevel st ~units u);
              project := (st, units, final)
            end))
      edits
  end

(* ------------------------------------------------------------------ *)
(* Input generation                                                    *)

let label_name = function
  | Wap_corpus.Snippet.Real -> "real"
  | Fp_easy -> "fp_easy"
  | Fp_hard -> "fp_hard"
  | Sanitized -> "sanitized"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let gen ~set ~seed ~out =
  let module A = Wap_corpus.Appgen in
  let pkgs =
    match set with
    | "webapps" -> List.map snd (Wap_corpus.Corpus.webapps ~seed ())
    | "plugins" -> List.map snd (Wap_corpus.Corpus.plugins ~seed ())
    | "vfront" ->
        List.filter
          (fun p -> p.A.pkg_name = "vfront")
          (List.map snd (Wap_corpus.Corpus.webapps ~seed ()))
    | s -> failwith ("unknown set " ^ s)
  in
  mkdir_p out;
  let written = Hashtbl.create 8192 in
  let truth =
    List.concat_map
      (fun (p : A.package) ->
        let dir = Filename.concat out (p.A.pkg_name ^ "-" ^ p.A.pkg_version) in
        List.iter
          (fun (f : A.file) ->
            let path = Filename.concat dir f.A.f_name in
            mkdir_p (Filename.dirname path);
            Hashtbl.replace written path ();
            write_file path f.A.f_source)
          p.A.pkg_files;
        List.map
          (fun (s : A.seeded) ->
            J.Obj
              [ ("file", J.Str (Filename.concat dir s.A.sd_file));
                ("lo", J.Int s.A.sd_line_lo);
                ("hi", J.Int s.A.sd_line_hi);
                ("label", J.Str (label_name s.A.sd_label));
                ("class", J.Str (Wap_catalog.Vuln_class.acronym s.A.sd_class)) ])
          p.A.pkg_seeded)
      pkgs
  in
  (* files of an earlier generation that this one did not write *)
  List.iter
    (fun p -> if not (Hashtbl.mem written p) then Sys.remove p)
    (expand out);
  write_file (Filename.concat out "truth.json") (J.to_string (J.List truth))

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc pos = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) pos rest
    | p :: rest -> opts acc (p :: pos) rest
    | [] -> (acc, List.rev pos)
  in
  let usage () =
    prerr_endline
      "usage: wapbench gen --set S --seed N --out DIR\n\
      \       wapbench trace --mode M --wap WAP --jobs J --trace-out F \
       [--spans off] [--export-out F] [--script F] PATH...";
    exit 2
  in
  match args with
  | cmd :: rest -> (
      let kv, pos = opts [] [] rest in
      let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
      match cmd with
      | "gen" -> gen ~set:(get "set") ~seed:(int_of_string (get "seed")) ~out:(get "out")
      | "trace" ->
          let wap = get "wap" and jobs = int_of_string (get "jobs") in
          enabled := List.assoc_opt "spans" kv <> Some "off";
          let start = now () in
          (match get "mode" with
          | "tree" | "flow" ->
              mode_project ~wap ~jobs ~export_out:(List.assoc_opt "export-out" kv) pos
          | "files" -> mode_files ~wap ~jobs pos
          | "serve" -> mode_serve ~wap ~jobs ~script:(get "script") pos
          | "engine" -> mode_engine ~jobs ~script:(get "script") pos
          | _ -> usage ());
          write_trace (get "trace-out") ~start
            ~other:
              [ ("wall_s", J.Float (now () -. start));
                ("replay_s", J.Float !replay_s) ]
      | _ -> usage ())
  | [] -> usage ()
