(** The session-oriented scan engine.

    A session ([open_project]) parses every file once and retains the
    ASTs, per-file pass results, summary table and catalog lookup in
    memory; [update_file]/[add_file]/[remove_file] apply targeted
    invalidation (re-parse + re-run the top-level pass for the touched
    file and its include-dependents only, falling back to a full
    re-analysis only when the edit changes the file's function-summary
    fingerprint under interprocedural analysis); [export] and
    [diagnostics] finalize and merge deterministically.  [run] is the
    one-shot batch entry point: open a session, export it.

    The batch pipeline lives here: fused multi-spec analysis (pass 1
    summaries, pass 2 function bodies, pass 3 parallel top-level
    sweep), digest-keyed caching, deterministic merge. *)

open Wap_php
module Cat = Wap_catalog.Catalog
module Trace = Wap_taint.Trace
module Obs = Wap_obs.Trace
module An = Wap_taint.Analyzer

(* v5: cached candidates and summaries store trace steps and query
   parts newest-first, so v4 entries (oldest-first) must not be
   reused. *)
let cache_format_version = "wap-engine-5"

(* Created at module initialisation, never lazily: the parse stage
   bumps them from pool workers, and forcing one [Lazy.t] from two
   domains at once raises [CamlinternalLazy.Undefined]. *)
let m_files_parsed = Wap_obs.Metrics.counter "engine.files_parsed"

let m_parse_recoveries =
  Wap_obs.Metrics.counter "engine.parse_error_recoveries"

let m_candidates spec_label =
  Wap_obs.Metrics.counter ("engine.candidates." ^ spec_label)

type progress =
  | File_parsed of { path : string; cached : bool }
  | File_analyzed of { path : string; cached : bool }

type request = {
  files : (string * string) list;
  specs : Cat.spec list;
  jobs : int;
  cache : Cache.t option;
  fingerprint : string;
  interprocedural : bool;
  summary_store : bool;
      (** persist pass-1 summary deltas under content-addressed chained
          keys, shared across projects through the cache *)
  on_progress : (progress -> unit) option;
}

let request ?(jobs = Config.default_jobs ()) ?cache ?(fingerprint = "")
    ?(interprocedural = true) ?(summary_store = false) ?on_progress ~specs
    files =
  { files; specs; jobs; cache; fingerprint; interprocedural; summary_store;
    on_progress }

type file_report = {
  fr_path : string;
  fr_seconds : float;
  fr_cached : bool;
  fr_errors : Parser.recovered_error list;
}

type spec_report = {
  sr_spec : string;
  sr_cached : bool;
  sr_candidates : int;
}

type outcome = {
  units : Wap_taint.Analyzer.file_unit list;
  candidates : Trace.candidate list;
  file_reports : file_report list;
  spec_reports : spec_report list;
  wall_seconds : float;
  cpu_seconds : float;
  phases : (string * float) list;
  jobs_used : int;
  cache_hits : int;
  cache_misses : int;
}

let spec_label (s : Cat.spec) =
  Wap_catalog.Submodule.name s.Cat.submodule
  ^ "/"
  ^ Wap_catalog.Vuln_class.acronym s.Cat.vclass

(* Total order of the deterministic merge: sink file, then sink
   location, then the spec's position in the active set; the sort is
   stable, so discovery order inside one spec breaks the remaining
   ties.  The location-major order is what users see; the trailing
   components pin down ties (e.g. RFI and LFI both firing on one
   include) so the later de-duplication keeps the same representative
   as a sequential spec-by-spec run. *)
let merge_compare (si, (a : Trace.candidate)) (sj, (b : Trace.candidate)) =
  let c = String.compare a.Trace.file b.Trace.file in
  if c <> 0 then c
  else
    let c =
      compare a.Trace.sink_loc.Loc.line b.Trace.sink_loc.Loc.line
    in
    if c <> 0 then c
    else
      let c = compare a.Trace.sink_loc.Loc.col b.Trace.sink_loc.Loc.col in
      if c <> 0 then c else compare (si : int) sj

let merge_indexed cands = List.stable_sort merge_compare cands

let merge groups =
  List.concat (List.mapi (fun si g -> List.map (fun c -> (si, c)) g) groups)
  |> merge_indexed |> List.map snd

(* [timed name f] runs [f] under a span and returns its result plus the
   wall clock it took — the per-phase breakdown surfaced by [--stats]
   and the JSON export. *)
let timed name f =
  let t0 = Wap_obs.Clock.now_ns () in
  let v = Obs.with_span ~cat:"engine" name f in
  (v, Wap_obs.Clock.ns_to_s (Wap_obs.Clock.elapsed_ns t0))

(* ------------------------------------------------------------------ *)
(* Session state.                                                      *)

(* One file of the open project.  The expensive derived facts (summary
   fingerprint, include list, dead-sink set) are lazy: a one-shot
   [run] never mutates the session and so never pays for them. *)
type entry = {
  ent_path : string;
  mutable ent_src_digest : string;  (* hex digest of the source text *)
  mutable ent_unit : An.file_unit;
  mutable ent_report : file_report;
  mutable ent_decl : (bool * string) Lazy.t;
      (* (has function decls, fingerprint of the exact function list
         passes 1/2 consume — names, bodies and locations) *)
  mutable ent_includes : string list Lazy.t;  (* top-level literal bases *)
  mutable ent_dead : Wap_flow.Reach.dead Lazy.t;
  mutable ent_pass2 : (int * Trace.candidate) list;
  mutable ent_pass3 : (int * Trace.candidate) list;
}

type event = { generation : int; progress : progress }

type t = {
  s_specs : Cat.spec list;
  s_jobs : int;
  s_cache : Cache.t option;
  s_fingerprint : string;
  s_interprocedural : bool;
  s_summary_store : bool;
  s_on_progress : (progress -> unit) option;
  s_on_event : (event -> unit) option;
  s_hits0 : int;
  s_misses0 : int;
  mutable s_entries : entry list;  (* project order *)
  mutable s_generation : int;
  mutable s_st : An.project_state option;
      (* [None] until first needed: an all-cache-hit open never builds
         the analyzer state at all *)
  mutable s_cached : bool;  (* every pass served from cache, no recompute *)
  mutable s_phases : (string * float) list;  (* parse/digest/analyze of open *)
  mutable s_wall : float;  (* wall spent in open + mutations + exports *)
  mutable s_cpu : float;
  mutable s_merged : (int * (int * Trace.candidate) list) option;
      (* cached finalize + merge, tagged with the generation it was
         built at *)
}

let generation t = t.s_generation
let specs t = t.s_specs
let paths t = List.map (fun e -> e.ent_path) t.s_entries
let mem t ~path = List.exists (fun e -> e.ent_path = path) t.s_entries

let emit t p =
  (match t.s_on_progress with Some f -> f p | None -> ());
  match t.s_on_event with
  | Some f -> f { generation = t.s_generation; progress = p }
  | None -> ()

let units_of t = List.map (fun e -> e.ent_unit) t.s_entries

(* ------------------------------------------------------------------ *)
(* Per-file facts.                                                     *)

let decl_of (program : Ast.program) =
  let funcs = Visitor.collect_functions program in
  ( funcs <> [],
    Digest.to_hex
      (Digest.string (String.concat "\x00" (List.map Ast.show_func funcs))) )

let dead_of (program : Ast.program) =
  lazy
    (let d = Wap_flow.Reach.create () in
     Wap_flow.Reach.add_program d program;
     d)

let parse_file t path src =
  (* no span of its own: the nested php "parse" span already covers this
     per-file work at the same granularity *)
  let t0 = Unix.gettimeofday () in
  let compute () = Parser.parse_string_tolerant ~file:path src in
  let (program, errs), cached =
    match t.s_cache with
    | Some c ->
        (* parsing depends only on the file itself, not on the active
           spec set, so the key deliberately omits the fingerprint *)
        let k =
          Cache.key
            [ cache_format_version; "parse"; path;
              Digest.to_hex (Digest.string src) ]
        in
        Cache.memoize c ~key:k compute
    | None -> (compute (), false)
  in
  Wap_obs.Metrics.incr m_files_parsed;
  if errs <> [] then
    Wap_obs.Metrics.incr ~by:(List.length errs) m_parse_recoveries;
  ( program,
    { fr_path = path; fr_seconds = Unix.gettimeofday () -. t0;
      fr_cached = cached; fr_errors = errs } )

let make_entry t path src =
  let program, report = parse_file t path src in
  {
    ent_path = path;
    ent_src_digest = Digest.to_hex (Digest.string src);
    ent_unit = { An.path; program };
    ent_report = report;
    ent_decl = lazy (decl_of program);
    ent_includes = lazy (An.include_basenames program);
    ent_dead = dead_of program;
    ent_pass2 = [];
    ent_pass3 = [];
  }

let refresh_entry t e src =
  let program, report = parse_file t e.ent_path src in
  emit t (File_parsed { path = e.ent_path; cached = report.fr_cached });
  e.ent_src_digest <- Digest.to_hex (Digest.string src);
  e.ent_unit <- { An.path = e.ent_path; program };
  e.ent_report <- report;
  e.ent_decl <- lazy (decl_of program);
  e.ent_includes <- lazy (An.include_basenames program);
  e.ent_dead <- dead_of program

(* ------------------------------------------------------------------ *)
(* Digests.                                                            *)

(* The analysis of one file depends on every other file (shared
   function summaries, include splicing), so analysis entries are
   keyed by a digest of the whole source set: any edit invalidates
   them all, which keeps caching sound. *)
let project_digest t =
  Cache.key
    (cache_format_version :: t.s_fingerprint
    :: (List.map
          (fun e -> e.ent_path ^ "\x01" ^ e.ent_src_digest)
          t.s_entries
       |> List.sort String.compare))

let analysis_digest t ~project_digest =
  Cache.key
    [ cache_format_version; project_digest; Cat.set_fingerprint t.s_specs;
      string_of_bool t.s_interprocedural ]

(* per-file keys carry the file's own source digest, not just its
   path: a request may legally repeat a path with different contents
   (merged corpora do), and path-only keys would hand the second file
   the first one's entry *)
let file_key ~analysis_digest e =
  Cache.key
    [ cache_format_version; "analyze-file"; analysis_digest; e.ent_path;
      e.ent_src_digest ]

(* ------------------------------------------------------------------ *)
(* Pass-1 summary store.                                               *)

(* Content-addressed chained keys for pass-1 summary deltas.  The
   delta of file i depends only on the file's own source, the active
   specs and the summaries registered by files 0..i-1 — so its key is
   the running hash of the (path, digest) prefix up to and including
   file i.  Identical prefixes (a framework layer shared by many
   projects, ordered first) therefore share entries {e across}
   projects through a shared cache directory, unlike the analyze-file
   entries whose keys embed the whole-project digest.  Opt-in
   ([summary_store], enabled by the fleet workers): it changes the
   cache hit/miss profile that batch callers observe. *)
let summary_chain_seed t =
  Cache.key
    [ cache_format_version; "summary-chain"; t.s_fingerprint;
      Cat.set_fingerprint t.s_specs; string_of_bool t.s_interprocedural ]

let summarize_entries t st =
  match t.s_cache with
  | Some c when t.s_summary_store ->
      let chain = ref (summary_chain_seed t) in
      List.iter
        (fun e ->
          chain := Cache.key [ !chain; e.ent_path; e.ent_src_digest ];
          match
            (Cache.find c ~key:!chain : Wap_taint.Summary.fused list option)
          with
          | Some fs -> An.register_summaries st fs
          | None ->
              Cache.store c ~key:!chain (An.summarize_file_delta st e.ent_unit))
        t.s_entries
  | _ -> List.iter (fun e -> An.summarize_file st e.ent_unit) t.s_entries

(* ------------------------------------------------------------------ *)
(* Fused pass runners.                                                 *)

(* pass 3: one top-level sweep per file, fanned out over the pool *)
let toplevel_map t ~st ~units (es : entry array) =
  Pool.map ~jobs:t.s_jobs
    (fun e -> An.analyze_file_toplevel st ~units e.ent_unit)
    es

(* Rebuild the analyzer state by replaying passes 1 and 2 over the
   current project — needed when an all-cache-hit open skipped them.
   The replayed pass-2 candidate output is identical to the cached
   per-entry results, so it is discarded. *)
let ensure_state t =
  match t.s_st with
  | Some st -> st
  | None ->
      let st =
        An.project_state ~interprocedural:t.s_interprocedural
          ~specs:t.s_specs ()
      in
      let units = units_of t in
      if t.s_interprocedural then summarize_entries t st;
      List.iter (fun u -> ignore (An.analyze_file_functions st u)) units;
      t.s_st <- Some st;
      st

(* Full fused recompute over the current entries: fresh state, passes
   1–3, one [File_analyzed] per file.  The fallback of every mutation
   that can change the shared summary table. *)
let reanalyze_all t =
  t.s_cached <- false;
  let st =
    An.project_state ~interprocedural:t.s_interprocedural ~specs:t.s_specs ()
  in
  t.s_st <- Some st;
  let units = units_of t in
  (* passes 1 and 2 are sequential by design (summaries build up
     across files); pass 3 is pure per file and fans out *)
  if t.s_interprocedural then
    Obs.with_span ~cat:"engine" "fused.summaries" (fun () ->
        summarize_entries t st);
  Obs.with_span ~cat:"engine" "fused.functions" (fun () ->
      List.iter
        (fun e -> e.ent_pass2 <- An.analyze_file_functions st e.ent_unit)
        t.s_entries);
  let arr = Array.of_list t.s_entries in
  let pass3 =
    Obs.with_span ~cat:"engine" "fused.toplevel" (fun () ->
        toplevel_map t ~st ~units arr)
  in
  Array.iteri (fun i e -> e.ent_pass3 <- pass3.(i)) arr;
  List.iter
    (fun e -> emit t (File_analyzed { path = e.ent_path; cached = false }))
    t.s_entries;
  paths t

(* Re-run pass 3 only, for the given entries. *)
let rerun_toplevel t (es : entry list) =
  if es = [] then []
  else begin
    t.s_cached <- false;
    let st = ensure_state t in
    let units = units_of t in
    let arr = Array.of_list es in
    let res =
      Obs.with_span ~cat:"engine" "fused.toplevel" (fun () ->
          toplevel_map t ~st ~units arr)
    in
    Array.iteri (fun i e -> e.ent_pass3 <- res.(i)) arr;
    List.iter
      (fun e -> emit t (File_analyzed { path = e.ent_path; cached = false }))
      es;
    List.map (fun e -> e.ent_path) es
  end

(* Pass 2 of one file in isolation — sound only when interprocedural
   analysis is off: candidate de-duplication keys are file-scoped and
   without summaries no other state is shared across files, so a fresh
   state reproduces exactly what the shared sequential pass computed. *)
let isolated_pass2 t e =
  let st = An.project_state ~interprocedural:false ~specs:t.s_specs () in
  e.ent_pass2 <- An.analyze_file_functions st e.ent_unit

(* Entries whose top-level sweep can splice [base] (transitively,
   through the include graph).  Conservative over-approximation — a
   base name is matched against every entry carrying it, where the
   splice itself picks the first in project order — which only ever
   re-runs too much, never too little. *)
let dependents t ~base ~excluding =
  let by_base = Hashtbl.create 16 in
  List.iter
    (fun e ->
      Hashtbl.add by_base (Filename.basename e.ent_path)
        (Lazy.force e.ent_includes))
    t.s_entries;
  let reaches e =
    let seen = Hashtbl.create 8 in
    let rec go bs =
      List.exists
        (fun b ->
          b = base
          || (not (Hashtbl.mem seen b))
             && begin
                  Hashtbl.add seen b ();
                  List.exists go (Hashtbl.find_all by_base b)
                end)
        bs
    in
    go (Lazy.force e.ent_includes)
  in
  List.filter (fun e -> e != excluding && reaches e) t.s_entries

(* ------------------------------------------------------------------ *)
(* Stage runners shared by open and (full-recompute) mutations.        *)

let fused_stage t ~project_digest =
  let fd = analysis_digest t ~project_digest in
  (* all-or-nothing probe (every key is probed even after a miss, so
     hit/miss counts stay deterministic): assembling a partial set
     would not be cheaper — the passes are whole-project anyway *)
  let probed =
    List.map
      (fun e ->
        let entry :
            ((int * Trace.candidate) list * (int * Trace.candidate) list)
            option =
          match t.s_cache with
          | Some c -> Cache.find c ~key:(file_key ~analysis_digest:fd e)
          | None -> None
        in
        (e, entry))
      t.s_entries
  in
  let all_hit =
    t.s_entries <> [] && List.for_all (fun (_, x) -> x <> None) probed
  in
  t.s_cached <- all_hit;
  if all_hit then
    List.iter
      (fun (e, x) ->
        let p2, p3 = Option.get x in
        e.ent_pass2 <- p2;
        e.ent_pass3 <- p3)
      probed
  else begin
    let st =
      An.project_state ~interprocedural:t.s_interprocedural ~specs:t.s_specs
        ()
    in
    t.s_st <- Some st;
    let units = units_of t in
    if t.s_interprocedural then
      Obs.with_span ~cat:"engine" "fused.summaries" (fun () ->
          summarize_entries t st);
    Obs.with_span ~cat:"engine" "fused.functions" (fun () ->
        List.iter
          (fun e -> e.ent_pass2 <- An.analyze_file_functions st e.ent_unit)
          t.s_entries);
    let arr = Array.of_list t.s_entries in
    let pass3 =
      Obs.with_span ~cat:"engine" "fused.toplevel" (fun () ->
          toplevel_map t ~st ~units arr)
    in
    Array.iteri (fun i e -> e.ent_pass3 <- pass3.(i)) arr;
    match t.s_cache with
    | Some c ->
        List.iter
          (fun e ->
            Cache.store c ~key:(file_key ~analysis_digest:fd e)
              (e.ent_pass2, e.ent_pass3))
          t.s_entries
    | None -> ()
  end;
  List.iter
    (fun e -> emit t (File_analyzed { path = e.ent_path; cached = all_hit }))
    t.s_entries

(* ------------------------------------------------------------------ *)
(* Open.                                                               *)

let open_project ?on_event (req : request) : t =
  Obs.with_span ~cat:"engine" "scan"
    ~args:[ ("files", string_of_int (List.length req.files));
            ("specs", string_of_int (List.length req.specs));
            ("jobs", string_of_int req.jobs) ]
  @@ fun () ->
  let t0_wall = Unix.gettimeofday () and t0_cpu = Sys.time () in
  let jobs = max 1 req.jobs in
  let t =
    {
      s_specs = req.specs;
      s_jobs = jobs;
      s_cache = req.cache;
      s_fingerprint = req.fingerprint;
      s_interprocedural = req.interprocedural;
      s_summary_store = req.summary_store;
      s_on_progress = req.on_progress;
      s_on_event = on_event;
      s_hits0 = (match req.cache with Some c -> Cache.hits c | None -> 0);
      s_misses0 = (match req.cache with Some c -> Cache.misses c | None -> 0);
      s_entries = [];
      s_generation = 0;
      s_st = None;
      s_cached = false;
      s_phases = [];
      s_wall = 0.;
      s_cpu = 0.;
      s_merged = None;
    }
  in
  (* ---- stage 1: tolerant parse, one work item per file ------------- *)
  let entries, t_parse =
    timed "phase.parse" (fun () ->
        let entries =
          Pool.map ~jobs
            (fun (path, src) -> make_entry t path src)
            (Array.of_list req.files)
        in
        Array.iter
          (fun e ->
            emit t
              (File_parsed
                 { path = e.ent_path; cached = e.ent_report.fr_cached }))
          entries;
        Array.to_list entries)
  in
  t.s_entries <- entries;
  let pdigest, t_digest = timed "phase.digest" (fun () -> project_digest t) in
  (* ---- stage 2: fused multi-spec analysis -------------------------- *)
  let (), t_analyze =
    timed "phase.analyze" (fun () -> fused_stage t ~project_digest:pdigest)
  in
  t.s_phases <-
    [ ("parse", t_parse); ("digest", t_digest); ("analyze", t_analyze) ];
  t.s_wall <- Unix.gettimeofday () -. t0_wall;
  t.s_cpu <- Sys.time () -. t0_cpu;
  t

(* ------------------------------------------------------------------ *)
(* Finalize / merge / export.                                          *)

(* Cross-file dedup + dead-sink filter over the retained per-file pass
   results — [Analyzer.finalize] with the dead sets kept per file, so
   an edit rebuilds one file's set, not the whole project's — then the
   deterministic merge.  Memoized per generation: repeated
   [diagnostics] calls between edits are free. *)
let merged_indexed t : (int * Trace.candidate) list =
  match t.s_merged with
  | Some (g, m) when g = t.s_generation -> m
  | _ ->
      let pass2 = List.concat_map (fun e -> e.ent_pass2) t.s_entries in
      let pass3 = List.concat_map (fun e -> e.ent_pass3) t.s_entries in
      let by_path = Hashtbl.create 16 in
      List.iter
        (fun e -> Hashtbl.add by_path e.ent_path e.ent_dead)
        t.s_entries;
      let is_dead (loc : Loc.t) =
        List.exists
          (fun d -> Wap_flow.Reach.is_dead (Lazy.force d) loc)
          (Hashtbl.find_all by_path loc.Loc.file)
      in
      let m = merge_indexed (An.finalize_with ~is_dead (pass2 @ pass3)) in
      t.s_merged <- Some (t.s_generation, m);
      m

let all_diagnostics t = merged_indexed t

type stats = {
  st_generation : int;
  st_files : int;
  st_candidates : int;
  st_cache_hits : int;
  st_cache_misses : int;
}

(* Cheap between edits: the candidate count reads the per-generation
   cached finalize, and the cache deltas are two counter reads. *)
let stats t : stats =
  {
    st_generation = t.s_generation;
    st_files = List.length t.s_entries;
    st_candidates = List.length (merged_indexed t);
    st_cache_hits =
      (match t.s_cache with Some c -> Cache.hits c - t.s_hits0 | None -> 0);
    st_cache_misses =
      (match t.s_cache with
      | Some c -> Cache.misses c - t.s_misses0
      | None -> 0);
  }

let diagnostics t ~path =
  List.filter (fun (_, c) -> c.Trace.file = path) (merged_indexed t)

let export t : outcome =
  let t0w = Unix.gettimeofday () and t0c = Sys.time () in
  let (spec_reports, candidates), t_merge =
    timed "phase.merge" (fun () ->
        let merged = merged_indexed t in
        let counts = Array.make (List.length t.s_specs) 0 in
        List.iter (fun (si, _) -> counts.(si) <- counts.(si) + 1) merged;
        let spec_reports =
          List.mapi
            (fun si spec ->
              let label = spec_label spec in
              Wap_obs.Metrics.incr ~by:counts.(si) (m_candidates label);
              { sr_spec = label; sr_cached = t.s_cached;
                sr_candidates = counts.(si) })
            t.s_specs
        in
        (spec_reports, List.map snd merged))
  in
  t.s_wall <- t.s_wall +. (Unix.gettimeofday () -. t0w);
  t.s_cpu <- t.s_cpu +. (Sys.time () -. t0c);
  {
    units = units_of t;
    candidates;
    file_reports = List.map (fun e -> e.ent_report) t.s_entries;
    spec_reports;
    wall_seconds = t.s_wall;
    cpu_seconds = t.s_cpu;
    phases = t.s_phases @ [ ("merge", t_merge) ];
    jobs_used = t.s_jobs;
    cache_hits =
      (match t.s_cache with Some c -> Cache.hits c - t.s_hits0 | None -> 0);
    cache_misses =
      (match t.s_cache with
      | Some c -> Cache.misses c - t.s_misses0
      | None -> 0);
  }

let run (req : request) : outcome = export (open_project req)

(* ------------------------------------------------------------------ *)
(* Mutations.                                                          *)

let find_unique t ~op ~path =
  match List.filter (fun e -> e.ent_path = path) t.s_entries with
  | [ e ] -> Some e
  | [] -> None
  | _ :: _ ->
      invalid_arg
        (Printf.sprintf "Session.%s: duplicate path %S in project" op path)

(* Every mutation: bump the generation (events of superseded edits are
   identifiable by their lower one), drop the finalize memo, account
   the wall/cpu spent. *)
let mutate t name f =
  Obs.with_span ~cat:"engine" name @@ fun () ->
  let t0w = Unix.gettimeofday () and t0c = Sys.time () in
  t.s_generation <- t.s_generation + 1;
  t.s_merged <- None;
  let r = f () in
  t.s_wall <- t.s_wall +. (Unix.gettimeofday () -. t0w);
  t.s_cpu <- t.s_cpu +. (Sys.time () -. t0c);
  r

let update_file t ~path src =
  let e =
    match find_unique t ~op:"update_file" ~path with
    | Some e -> e
    | None ->
        invalid_arg
          (Printf.sprintf "Session.update_file: no file %S in project" path)
  in
  mutate t "session.update_file" @@ fun () ->
  let _, old_fp = Lazy.force e.ent_decl in
  refresh_entry t e src;
  let _, new_fp = Lazy.force e.ent_decl in
  let decl_changed = not (String.equal old_fp new_fp) in
  if decl_changed && t.s_interprocedural then reanalyze_all t
  else begin
    if decl_changed then isolated_pass2 t e;
    let deps = dependents t ~base:(Filename.basename path) ~excluding:e in
    rerun_toplevel t (e :: deps)
  end

let add_file t ~path src =
  if mem t ~path then
    invalid_arg
      (Printf.sprintf "Session.add_file: file %S already in project" path);
  mutate t "session.add_file" @@ fun () ->
  let e = make_entry t path src in
  emit t (File_parsed { path; cached = e.ent_report.fr_cached });
  t.s_entries <- t.s_entries @ [ e ];
  let has_funcs, _ = Lazy.force e.ent_decl in
  if has_funcs && t.s_interprocedural then reanalyze_all t
  else begin
    if has_funcs then isolated_pass2 t e;
    let deps = dependents t ~base:(Filename.basename path) ~excluding:e in
    rerun_toplevel t (e :: deps)
  end

let remove_file t ~path =
  match find_unique t ~op:"remove_file" ~path with
  | None -> []
  | Some e ->
      mutate t "session.remove_file" @@ fun () ->
      let deps = dependents t ~base:(Filename.basename path) ~excluding:e in
      t.s_entries <- List.filter (fun x -> x != e) t.s_entries;
      let had_funcs, _ = Lazy.force e.ent_decl in
      if had_funcs && t.s_interprocedural then reanalyze_all t
      else rerun_toplevel t deps
