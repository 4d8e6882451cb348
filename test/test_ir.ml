(** The three-address IR path (Wap_ir): lowering + execution must be
    byte-identical to the AST walker on every input — committed fuzz
    seeds, the synthetic corpus, and edge constructs picked to stress
    the lowering (operator associativity, interpolation, literal
    bounds).  Plus the [wap ir --dump] renderings and the WAP_IR
    environment gate. *)

module T = Wap_core.Tool
module Scan = Wap_core.Tool.Scan
module Cat = Wap_catalog.Catalog

let seed = 2016
let wape = lazy (T.create ~seed Wap_core.Version.Wape)

let zero_timings (r : T.package_result) =
  {
    r with
    T.analysis_seconds = 0.0;
    analysis_cpu_seconds = 0.0;
    phase_seconds = List.map (fun (k, _) -> (k, 0.0)) r.phase_seconds;
  }

(* Canonical export of one scan: timings zeroed so the comparison is
   about candidates, flows and predictions only. *)
let export ~ir files =
  let o = Scan.run (Lazy.force wape) (Scan.request ~jobs:1 ~ir files) in
  Wap_core.Export.result_to_string (zero_timings o.Scan.result)

let check_equiv name files =
  Alcotest.(check string)
    (name ^ ": IR export = AST-walker export")
    (export ~ir:false files) (export ~ir:true files)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* Equivalence on committed reproducers and the corpus.                *)

let test_fuzz_seeds_equiv () =
  let seeds =
    Sys.readdir "fuzz_seeds" |> Array.to_list |> List.sort String.compare
    |> List.filter (fun f -> Filename.check_suffix f ".php")
  in
  Alcotest.(check bool)
    "at least the seven pinned reproducers present" true
    (List.length seeds >= 7);
  List.iter
    (fun f ->
      let path = Filename.concat "fuzz_seeds" f in
      check_equiv f [ (path, read_file path) ])
    seeds

let test_corpus_equiv () =
  (* the three seeded-vulnerable webapps exercise every detector class *)
  List.iteri
    (fun i profile ->
      let pkg = Wap_corpus.Appgen.of_webapp_profile ~seed profile in
      let files =
        List.map
          (fun (f : Wap_corpus.Appgen.file) ->
            (f.Wap_corpus.Appgen.f_name, f.Wap_corpus.Appgen.f_source))
          pkg.Wap_corpus.Appgen.pkg_files
      in
      check_equiv (Printf.sprintf "webapp %d" i) files)
    (List.filteri (fun i _ -> i < 3) Wap_corpus.Profiles.vulnerable_webapps)

let test_merged_packages_equiv () =
  (* one request spanning several generated packages; the profile list
     repeats package names, so the merged file list contains duplicate
     paths with different contents — a regression test for the lowering
     memo, which must key on content, not path *)
  let files =
    List.concat_map
      (fun profile ->
        let pkg = Wap_corpus.Appgen.of_webapp_profile ~seed profile in
        List.map
          (fun (f : Wap_corpus.Appgen.file) ->
            ( Filename.concat pkg.Wap_corpus.Appgen.pkg_name
                f.Wap_corpus.Appgen.f_name,
              f.Wap_corpus.Appgen.f_source ))
          pkg.Wap_corpus.Appgen.pkg_files)
      (List.filteri (fun i _ -> i < 4) Wap_corpus.Profiles.vulnerable_webapps)
  in
  let paths = List.map fst files in
  Alcotest.(check bool)
    "the merged corpus really repeats paths" true
    (List.length (List.sort_uniq String.compare paths) < List.length paths);
  check_equiv "merged 4-package app" files;
  (* a second scan in the same process answers from the lowering memo *)
  check_equiv "merged 4-package app, memo warm" files

(* ------------------------------------------------------------------ *)
(* Edge constructs: associativity, nesting and literal bounds the
   lowering must linearize in exactly the walker's evaluation order.   *)

let edge_programs =
  [
    ( "left-nested coalesce",
      "<?php $a = $_GET['a'] ?? $_GET['b'] ?? 'x'; echo $a; ?>" );
    ( "right-nested power",
      "<?php $n = 2 ** 3 ** 2; $q = $_GET['q'] ?? $n; echo $q; ?>" );
    ( "nested unary sign",
      "<?php $x = - - + -1; $y = $_POST['y']; echo $x . $y; ?>" );
    ( "interpolation with subscript",
      "<?php $u = $_GET['u']; echo \"hello $u and {$_POST['v']} end\"; ?>" );
    ( "interpolated array variable",
      "<?php $a['k'] = $_GET['k']; echo \"got {$a['k']}!\"; ?>" );
    ( "huge int literal",
      "<?php $big = 999999999999999999999999; echo $big; $t = $_GET['t']; \
       mysql_query($t . 9223372036854775807); ?>" );
    ( "ternary chain with guards",
      "<?php $v = isset($_GET['v']) ? $_GET['v'] : ''; echo $v ?: 'none'; ?>" );
    ( "compound concat through loop",
      "<?php $s = ''; for ($i = 0; $i < 3; $i++) { $s .= $_GET['p']; } \
       echo $s; ?>" );
  ]

let test_edge_constructs () =
  List.iter
    (fun (name, src) -> check_equiv name [ ("edge.php", src) ])
    edge_programs

(* ------------------------------------------------------------------ *)
(* The dump renderings.                                                *)

let lower_source src =
  let program, _errs =
    Wap_php.Parser.parse_string_tolerant ~file:"dump.php" src
  in
  let specs =
    Cat.specs_for (Wap_core.Version.classes Wap_core.Version.Wape)
  in
  Wap_ir.Lower.program ~specs:(Array.of_list specs)
    ~lookup:(Cat.Lookup.of_specs specs) program

let test_dump_text () =
  let body =
    lower_source "<?php $c = $_GET['cmd']; if ($c) { echo $c; } ?>"
  in
  let s = Wap_ir.Dump.to_string body in
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "names the entry block" true (contains "b0");
  Alcotest.(check bool) "numbers temporaries" true (contains "t0");
  Alcotest.(check bool) "annotates the echo sink" true (contains "sink echo");
  Alcotest.(check bool)
    "annotates the superglobal source" true (contains "source")

let test_dump_json () =
  let body = lower_source "<?php echo $_GET['x'] . 'y'; ?>" in
  let s = Wap_report.Json.to_string (Wap_ir.Dump.to_json body) in
  match Wap_report.Json.of_string s with
  | Error m -> Alcotest.failf "dump JSON does not re-parse: %s" m
  | Ok j -> (
      match Wap_report.Json.member "blocks" j with
      | Some (Wap_report.Json.List (_ :: _)) -> ()
      | _ -> Alcotest.fail "dump JSON has no blocks array")

(* ------------------------------------------------------------------ *)
(* The WAP_IR environment gate.                                        *)

let test_default_ir_env () =
  let original = Sys.getenv_opt "WAP_IR" in
  let set v = Unix.putenv "WAP_IR" v in
  set "0";
  Alcotest.(check bool) "WAP_IR=0 disables" false (Wap_engine.Config.default_ir ());
  set "false";
  Alcotest.(check bool) "WAP_IR=false disables" false
    (Wap_engine.Config.default_ir ());
  set "off";
  Alcotest.(check bool) "WAP_IR=off disables" false
    (Wap_engine.Config.default_ir ());
  set "1";
  Alcotest.(check bool) "WAP_IR=1 enables" true (Wap_engine.Config.default_ir ());
  set "";
  Alcotest.(check bool) "empty enables" true (Wap_engine.Config.default_ir ());
  set (Option.value original ~default:"")

let test_request_defaults () =
  let original = Sys.getenv_opt "WAP_IR" in
  Unix.putenv "WAP_IR" "0";
  let req = Scan.request ~jobs:1 [ ("a.php", "<?php ?>") ] in
  Alcotest.(check bool) "request honours WAP_IR=0" false req.Scan.ir;
  let forced = Scan.request ~jobs:1 ~ir:true [ ("a.php", "<?php ?>") ] in
  Alcotest.(check bool) "?ir overrides the environment" true forced.Scan.ir;
  Unix.putenv "WAP_IR" (Option.value original ~default:"")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "wap_ir"
    [
      ( "equivalence",
        [
          Alcotest.test_case "committed fuzz seeds, both paths" `Slow
            test_fuzz_seeds_equiv;
          Alcotest.test_case "seeded-vulnerable corpus, both paths" `Slow
            test_corpus_equiv;
          Alcotest.test_case "merged packages with repeated paths" `Slow
            test_merged_packages_equiv;
          Alcotest.test_case "edge constructs, both paths" `Quick
            test_edge_constructs;
        ] );
      ( "dump",
        [
          Alcotest.test_case "text rendering" `Quick test_dump_text;
          Alcotest.test_case "json rendering" `Quick test_dump_json;
        ] );
      ( "gate",
        [
          Alcotest.test_case "WAP_IR parsing" `Quick test_default_ir_env;
          Alcotest.test_case "request defaults" `Quick test_request_defaults;
        ] );
    ]
