(** The three-address IR (Wap_ir): pass 3 over lowered IR must find
    exactly what the AST walker finds, on every input — committed fuzz
    seeds, the synthetic corpus, and edge constructs picked to stress
    the lowering (operator associativity, interpolation, literal
    bounds).  The engine runs the walker; the IR reference is
    {!Wap_fuzz.Oracle.ir_reference}, the decomposition the benchmark's
    traced replay runs. *)

module An = Wap_taint.Analyzer
module Oracle = Wap_fuzz.Oracle

let seed = 2016

let specs =
  Wap_catalog.Catalog.specs_for (Wap_core.Version.classes Wap_core.Version.Wape)

let check_equiv name files =
  let units =
    List.map
      (fun (path, src) ->
        let program, _ = Wap_php.Parser.parse_string_tolerant ~file:path src in
        { An.path; program })
      files
  in
  let render cs = Oracle.render_candidates (List.map snd cs) in
  Alcotest.(check string)
    (name ^ ": IR pass 3 = AST-walker pass 3")
    (render (An.analyze_project_indexed ~specs units))
    (render (Oracle.ir_reference ~specs units))

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
  (* one project spanning several generated packages; the profile list
     repeats package names, so the merged file list contains duplicate
     paths with different contents, which include splicing and the
     cross-file de-duplication must tell apart the same way *)
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
  check_equiv "merged 4-package app" files

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
    ( "compound assignment steps",
      "<?php $n = $_GET['n']; $n += 1; $n .= 'x'; echo $n; ?>" );
    ( "compound concat through loop",
      "<?php $s = ''; for ($i = 0; $i < 3; $i++) { $s .= $_GET['p']; } \
       echo $s; ?>" );
  ]

let test_edge_constructs () =
  List.iter
    (fun (name, src) -> check_equiv name [ ("edge.php", src) ])
    edge_programs

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
    ]
