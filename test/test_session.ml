(** The session-oriented engine: targeted invalidation on
    edit/add/remove (observed through generation-tagged progress
    events), and equivalence of the incremental session with a fresh
    batch scan over the same sources. *)

module S = Wap_engine.Session
module T = Wap_core.Tool
module Trace = Wap_taint.Trace

let seed = 2016
let wape = lazy (T.create ~seed Wap_core.Version.Wape)
let specs () = (Lazy.force wape).T.specs

(* A small project exercising every invalidation rule: an
   interprocedural flow through [lib.php]'s function summary, a
   function-free vulnerable file, and an include pair. *)
let lib_php =
  "<?php function fetch($id) { return mysql_query(\"SELECT * FROM t WHERE id \
   = \" . $id); } ?>"

let vuln_php = "<?php $r = fetch($_GET['id']); echo $_GET['name']; ?>"
let inc_php = "<?php $x = $_GET['x']; ?>"
let main_php = "<?php include 'inc.php'; echo $x; ?>"

let project () =
  [
    ("lib.php", lib_php);
    ("vuln.php", vuln_php);
    ("inc.php", inc_php);
    ("main.php", main_php);
  ]

let request ?(jobs = 1) files = S.request ~jobs ~specs:(specs ()) files

(* Record generation-tagged events; [analyzed ~gen] lists the paths
   whose (re-)analysis the given generation performed, in event
   order. *)
let recorder () =
  let events : S.event list ref = ref [] in
  ((fun ev -> events := ev :: !events), events)

let analyzed ~gen events =
  List.rev !events
  |> List.filter_map (fun (ev : S.event) ->
         match ev.S.progress with
         | S.File_analyzed { path; _ } when ev.S.generation = gen -> Some path
         | _ -> None)

let sorted = List.sort compare

(* ------------------------------------------------------------------ *)

let test_open_analyzes_everything () =
  let on_event, events = recorder () in
  let s = S.open_project ~on_event (request (project ())) in
  Alcotest.(check int) "generation 0 after open" 0 (S.generation s);
  Alcotest.(check (list string))
    "open analyzes every file"
    (sorted (List.map fst (project ())))
    (sorted (analyzed ~gen:0 events));
  Alcotest.(check (list string))
    "paths in project order"
    (List.map fst (project ()))
    (S.paths s);
  Alcotest.(check bool) "mem known" true (S.mem s ~path:"vuln.php");
  Alcotest.(check bool) "mem unknown" false (S.mem s ~path:"nope.php")

let test_summary_preserving_edit_is_local () =
  let on_event, events = recorder () in
  let s = S.open_project ~on_event (request (project ())) in
  (* vuln.php defines no functions: its function-summary fingerprint
     cannot change, so only its own top-level pass re-runs *)
  let reran =
    S.update_file s ~path:"vuln.php"
      "<?php $r = fetch($_GET['id2']); echo $_GET['name']; ?>"
  in
  Alcotest.(check (list string)) "only the edited file" [ "vuln.php" ] reran;
  Alcotest.(check int) "generation bumped" 1 (S.generation s);
  Alcotest.(check (list string))
    "one re-analysis event, tagged generation 1" [ "vuln.php" ]
    (analyzed ~gen:1 events)

let test_code_after_functions_is_local () =
  let on_event, events = recorder () in
  let s = S.open_project ~on_event (request (project ())) in
  (* appending top-level code after the function leaves every declared
     function (bodies and locations) intact: the fingerprint is
     unchanged and the edit stays local despite the file defining a
     function *)
  let reran =
    S.update_file s ~path:"lib.php"
      "<?php function fetch($id) { return mysql_query(\"SELECT * FROM t \
       WHERE id = \" . $id); } $unused = 1; ?>"
  in
  Alcotest.(check (list string)) "only the edited file" [ "lib.php" ] reran;
  Alcotest.(check (list string))
    "one re-analysis event" [ "lib.php" ]
    (analyzed ~gen:1 events)

let test_summary_changing_edit_reanalyzes_project () =
  let on_event, events = recorder () in
  let s = S.open_project ~on_event (request (project ())) in
  (* changing [fetch]'s body changes its summary; with interprocedural
     analysis on, every caller may be affected -> full re-analysis *)
  let reran =
    S.update_file s ~path:"lib.php"
      "<?php function fetch($id) { return mysql_query(\"DELETE FROM t WHERE \
       id = \" . $id); } ?>"
  in
  Alcotest.(check (list string))
    "every file re-analyzed"
    (sorted (List.map fst (project ())))
    (sorted reran);
  Alcotest.(check (list string))
    "events cover the project"
    (sorted (List.map fst (project ())))
    (sorted (analyzed ~gen:1 events))

let test_include_dependents_rerun () =
  let on_event, events = recorder () in
  let s = S.open_project ~on_event (request (project ())) in
  (* main.php splices inc.php at top level: editing the includee
     re-runs the includer too (inc.php has no functions, so nothing
     else) *)
  let reran = S.update_file s ~path:"inc.php" "<?php $x = $_GET['y']; ?>" in
  Alcotest.(check (list string))
    "includee + includer"
    [ "inc.php"; "main.php" ]
    (sorted reran);
  Alcotest.(check (list string))
    "matching events"
    [ "inc.php"; "main.php" ]
    (sorted (analyzed ~gen:1 events))

let test_add_and_remove () =
  let on_event, events = recorder () in
  let s = S.open_project ~on_event (request (project ())) in
  let reran = S.add_file s ~path:"extra.php" "<?php echo $_GET['e']; ?>" in
  Alcotest.(check (list string)) "added file analyzed" [ "extra.php" ] reran;
  Alcotest.(check (list string))
    "add event at generation 1" [ "extra.php" ]
    (analyzed ~gen:1 events);
  Alcotest.(check bool) "now a member" true (S.mem s ~path:"extra.php");
  Alcotest.check_raises "duplicate add rejected"
    (Invalid_argument "Session.add_file: file \"extra.php\" already in project")
    (fun () -> ignore (S.add_file s ~path:"extra.php" "<?php ?>"));
  (* removing the includee re-runs only the includer *)
  let reran = S.remove_file s ~path:"inc.php" in
  Alcotest.(check (list string)) "includer re-ran" [ "main.php" ] reran;
  Alcotest.(check bool) "gone" false (S.mem s ~path:"inc.php");
  Alcotest.(check (list string)) "unknown remove is a no-op" []
    (S.remove_file s ~path:"inc.php");
  Alcotest.(check int) "no-op does not bump the generation" 2 (S.generation s)

let test_update_unknown_raises () =
  let s = S.open_project (request (project ())) in
  Alcotest.check_raises "unknown update rejected"
    (Invalid_argument "Session.update_file: no file \"nope.php\" in project")
    (fun () -> ignore (S.update_file s ~path:"nope.php" "<?php ?>"))

let test_event_generations_monotonic () =
  let on_event, events = recorder () in
  let s = S.open_project ~on_event (request (project ())) in
  ignore (S.update_file s ~path:"vuln.php" vuln_php);
  ignore (S.add_file s ~path:"extra.php" "<?php echo $_GET['e']; ?>");
  ignore (S.remove_file s ~path:"extra.php");
  Alcotest.(check int) "three mutations" 3 (S.generation s);
  let gens = List.rev_map (fun (ev : S.event) -> ev.S.generation) !events in
  Alcotest.(check bool) "generations non-decreasing" true
    (List.for_all2 ( <= ) gens (List.tl gens @ [ max_int ]));
  (* generation 3 removes a file nothing depends on: no re-analysis,
     hence no events — only 0..2 must appear *)
  Alcotest.(check bool) "events span generations 0-2" true
    (List.for_all (fun g -> List.mem g gens) [ 0; 1; 2 ]);
  Alcotest.(check bool) "no event exceeds the session generation" true
    (List.for_all (fun g -> g <= S.generation s) gens)

(* ------------------------------------------------------------------ *)
(* Session export = fresh batch scan over the final sources.           *)

(* The deterministic surface of an engine outcome: everything except
   wall-clock (timings differ run to run by construction). *)
let render (o : S.outcome) : string =
  String.concat "\n"
    (List.map Trace.show_candidate o.S.candidates
    @ List.map
        (fun (fr : S.file_report) ->
          Printf.sprintf "file %s cached=%b errors=%d" fr.S.fr_path
            fr.S.fr_cached
            (List.length fr.S.fr_errors))
        o.S.file_reports
    @ List.map
        (fun (sr : S.spec_report) ->
          Printf.sprintf "spec %s candidates=%d" sr.S.sr_spec
            sr.S.sr_candidates)
        o.S.spec_reports
    @ [ Printf.sprintf "jobs=%d" o.S.jobs_used ])

let test_export_matches_fresh_scan () =
  List.iter
    (fun jobs ->
      let s = S.open_project (request ~jobs (project ())) in
      ignore
        (S.update_file s ~path:"vuln.php"
           "<?php $r = fetch($_GET['id']); echo $_POST['name']; ?>");
      ignore (S.add_file s ~path:"extra.php" "<?php echo $_GET['e']; ?>");
      ignore (S.remove_file s ~path:"inc.php");
      ignore
        (S.update_file s ~path:"lib.php"
           "<?php function fetch($id) { return mysql_query(\"DELETE FROM t \
            WHERE id = \" . $id); } ?>");
      let final_sources =
        [
          ( "lib.php",
            "<?php function fetch($id) { return mysql_query(\"DELETE FROM t \
             WHERE id = \" . $id); } ?>" );
          ("vuln.php", "<?php $r = fetch($_GET['id']); echo $_POST['name']; ?>");
          ("main.php", main_php);
          ("extra.php", "<?php echo $_GET['e']; ?>");
        ]
      in
      Alcotest.(check (list string))
        (Printf.sprintf "project order after mutations (jobs=%d)" jobs)
        (List.map fst final_sources) (S.paths s);
      Alcotest.(check string)
        (Printf.sprintf "session export = fresh scan (jobs=%d)" jobs)
        (render (S.run (request ~jobs final_sources)))
        (render (S.export s)))
    [ 1; 4 ]

let test_diagnostics_partition_export () =
  let s = S.open_project (request (project ())) in
  let all = S.all_diagnostics s in
  Alcotest.(check bool) "project has findings" true (List.length all > 0);
  (* per-file views partition the full view *)
  let by_path =
    List.concat_map (fun p -> S.diagnostics s ~path:p) (S.paths s)
  in
  Alcotest.(check (list string))
    "per-file diagnostics partition the project view"
    (sorted (List.map (fun (_, c) -> Trace.summary c) all))
    (sorted (List.map (fun (_, c) -> Trace.summary c) by_path));
  List.iter
    (fun p ->
      List.iter
        (fun ((_, c) : int * Trace.candidate) ->
          Alcotest.(check string) "sink file matches the queried path" p
            c.Trace.file)
        (S.diagnostics s ~path:p))
    (S.paths s);
  (* the finalized view is cached per generation: repeated calls are
     consistent *)
  Alcotest.(check int) "stable across calls" (List.length all)
    (List.length (S.all_diagnostics s));
  (* export's candidates line up with the diagnostics view *)
  let o = S.export s in
  Alcotest.(check (list string))
    "diagnostics = export candidates"
    (List.map Trace.summary o.S.candidates)
    (List.map (fun (_, c) -> Trace.summary c) all)

let () =
  Alcotest.run "session"
    [
      ( "invalidation",
        [
          Alcotest.test_case "open analyzes everything" `Quick
            test_open_analyzes_everything;
          Alcotest.test_case "summary-preserving edit is local" `Quick
            test_summary_preserving_edit_is_local;
          Alcotest.test_case "top-level code after functions stays local"
            `Quick test_code_after_functions_is_local;
          Alcotest.test_case "summary-changing edit re-analyzes project"
            `Quick test_summary_changing_edit_reanalyzes_project;
          Alcotest.test_case "include dependents re-run" `Quick
            test_include_dependents_rerun;
          Alcotest.test_case "add/remove" `Quick test_add_and_remove;
          Alcotest.test_case "unknown update raises" `Quick
            test_update_unknown_raises;
          Alcotest.test_case "event generations monotonic" `Quick
            test_event_generations_monotonic;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "export matches fresh scan, jobs 1/4" `Slow
            test_export_matches_fresh_scan;
          Alcotest.test_case "diagnostics partition the export" `Quick
            test_diagnostics_partition_export;
        ] );
    ]
