(** Benchmark and experiment harness.

    [dune exec bench/main.exe] regenerates every table and figure of the
    paper's evaluation (printed to stdout, suitable for [tee]) and then
    runs the Bechamel micro-benchmarks: one kernel per table/figure plus
    the substrate benchmarks (lexer, parser, taint analysis, symptom
    collection, classifiers, weapon generation, fix insertion).

    Flags: [--tables-only] skips Bechamel; [--bench-only] skips the
    tables; [--quick] limits the corpus runs to the vulnerable packages. *)

open Bechamel
module E = Wap_core.Experiments

let seed = 2016

(* ------------------------------------------------------------------ *)
(* Experiment regeneration.                                            *)

let print_tables ~quick () =
  let t_total = Sys.time () in
  print_string (E.table1 ());
  print_newline ();
  let dataset = Wap_core.Training.dataset_for ~seed Wap_core.Version.Wape in
  print_string (E.table2 ~seed ~dataset ());
  print_newline ();
  print_string (E.table3 ~seed ~dataset ());
  print_newline ();
  print_string (E.classifier_ranking ~seed ());
  print_newline ();
  print_string (E.ablation_attributes ~seed ());
  print_newline ();
  print_string (E.ablation_interprocedural ~seed ());
  print_newline ();
  print_string (E.ablation_vote ~seed ());
  print_newline ();
  print_string (E.table4 ());
  print_newline ();
  let webapps = E.run_webapps ~seed ~only_vulnerable:quick () in
  print_string (E.table5 webapps);
  print_newline ();
  print_string (E.table6 webapps);
  print_newline ();
  let plugins = E.run_plugins ~seed ~only_vulnerable:quick () in
  print_string (E.table7 plugins);
  print_newline ();
  print_string (E.fig4 plugins);
  print_newline ();
  print_string (E.fig5 webapps plugins);
  print_newline ();
  print_string (E.confirmation_table ~seed ~packages:6 ());
  print_newline ();
  let before, after = E.escape_experiment ~seed () in
  Printf.printf
    "Extensibility experiment (Section V-A): a vfront-like module reports %d\n\
     candidate(s); after feeding the application's own escape() function as a\n\
     sanitizer, %d remain (the custom-sanitized flows are no longer reported).\n"
    before after;
  Printf.printf "\n[experiments regenerated in %.1fs cpu]\n%!" (Sys.time () -. t_total)

(* ------------------------------------------------------------------ *)
(* Scan-engine kernel: parallel speedup and warm-cache rescan.         *)

let run_scan_engine ?(check_fused = false) ?(check_obs = false)
    ?(check_parse = false) () =
  (* merge several packages into one large application so the scan has
     enough files and spec-tasks to spread over the workers *)
  let profiles =
    List.filteri (fun i _ -> i < 4) Wap_corpus.Profiles.vulnerable_webapps
  in
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
      profiles
  in
  let tool = Wap_core.Tool.create ~seed Wap_core.Version.Wape in
  let scan ?cache jobs =
    Wap_core.Tool.Scan.run tool (Wap_core.Tool.Scan.request ~jobs ?cache files)
  in
  print_string "== Scan engine (lib/engine) ==\n";
  Printf.printf "corpus: %d files from %d packages, %d detector specs\n"
    (List.length files) (List.length profiles)
    (List.length tool.Wap_core.Tool.specs);
  let cores = Domain.recommended_domain_count () in
  (* speedup is only physically possible up to the core count; past it,
     extra domains just contend on the stop-the-world minor GC *)
  let par_jobs = if cores >= 4 then 4 else max 1 cores in
  let o1 = scan 1 in
  let opar = scan par_jobs in
  let w1 = o1.Wap_core.Tool.Scan.result.Wap_core.Tool.analysis_seconds in
  let wp = opar.Wap_core.Tool.Scan.result.Wap_core.Tool.analysis_seconds in
  Printf.printf "cold scan, jobs=1: %6.2fs wall  (%.2fs cpu)\n" w1
    o1.Wap_core.Tool.Scan.result.Wap_core.Tool.analysis_cpu_seconds;
  (* on a 1-core host jobs=1 vs jobs=1 is pure noise, not a parallel
     speedup: report it as not-measured instead of as a regression *)
  let par_speedup =
    if par_jobs <= 1 then None else Some (if wp > 0. then w1 /. wp else 0.)
  in
  (match par_speedup with
  | Some s ->
      Printf.printf
        "cold scan, jobs=%d: %6.2fs wall  (%.2fs cpu)  speedup %.2fx\n"
        par_jobs wp
        opar.Wap_core.Tool.Scan.result.Wap_core.Tool.analysis_cpu_seconds s
  | None ->
      Printf.printf
        "cold scan, jobs=%d: %6.2fs wall  (%.2fs cpu)  speedup n/a — host \
         reports %d core(s), parallel-speedup check skipped\n"
        par_jobs wp
        opar.Wap_core.Tool.Scan.result.Wap_core.Tool.analysis_cpu_seconds cores);
  if cores < 4 && par_jobs > 1 then
    Printf.printf
      "  (host reports %d core(s); speedup measured at jobs=%d, not 4)\n"
      cores par_jobs;
  let units =
    List.map
      (fun (path, src) ->
        {
          Wap_taint.Analyzer.path;
          program = fst (Wap_php.Parser.parse_string_tolerant ~file:path src);
        })
      files
  in
  let min_of_3 run =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      run ();
      let w = Unix.gettimeofday () -. t0 in
      if w < !best then best := w
    done;
    !best
  in
  (* fused vs per-spec: the whole-project analysis of the same parsed
     units at jobs=1, once as the fused multi-spec pass and once as the
     per-spec reference the equivalence tests compare against (one
     [analyze_project ~spec] run per detector).  Parsing, caching and
     merging are not timed: only the fusion differs.  min-of-3 per
     side, like the parse kernel below. *)
  let specs = tool.Wap_core.Tool.specs in
  let w_fused =
    min_of_3 (fun () ->
        ignore (Wap_taint.Analyzer.analyze_project_indexed ~specs units))
  in
  let wns =
    min_of_3 (fun () ->
        List.iter
          (fun spec -> ignore (Wap_taint.Analyzer.analyze_project ~spec units))
          specs)
  in
  let fused_speedup = if w_fused > 0. then wns /. w_fused else 0. in
  Printf.printf
    "analysis, jobs=1 (min of 3): fused %6.3fs, per-spec reference %6.3fs \
     — fused speedup %.2fx\n"
    w_fused wns fused_speedup;
  (* parse kernel: the full lex+parse of the corpus, old list pipeline vs
     the buffer scanner.  The old side is the retained reference lexer
     plus the compat bridge into the buffer parser — the same
     list-then-array shape the pre-buffer parser built.  min-of-3 per
     side; same rule as above, time only the phase that differs. *)
  let parse_wall one =
    min_of_3 (fun () ->
        List.iter (fun (path, src) -> ignore (one ~file:path src)) files)
  in
  let w_parse_ref =
    parse_wall (fun ~file src ->
        Wap_php.Parser.parse_buf
          (Wap_php.Token_buf.of_list ~file (Wap_php.Lexer_ref.tokenize ~file src)))
  in
  let w_parse =
    parse_wall (fun ~file src ->
        Wap_php.Parser.parse_buf (Wap_php.Lexer.tokenize_buf ~file src))
  in
  let parse_speedup = if w_parse > 0. then w_parse_ref /. w_parse else 0. in
  Printf.printf
    "parse, jobs=1 (min of 3): list lexer %6.3fs, buffer scanner %6.3fs — \
     parse speedup %.2fx\n"
    w_parse_ref w_parse parse_speedup;
  let o4 = scan 4 in
  let same =
    List.length o1.Wap_core.Tool.Scan.result.Wap_core.Tool.candidates
    = List.length o4.Wap_core.Tool.Scan.result.Wap_core.Tool.candidates
  in
  Printf.printf "deterministic at jobs=4: %s (%d candidates)\n"
    (if same then "yes" else "NO — MISMATCH")
    (List.length o4.Wap_core.Tool.Scan.result.Wap_core.Tool.candidates);
  let cache = Wap_engine.Cache.create () in
  let oc1 = scan ~cache 4 in
  let oc2 = scan ~cache 4 in
  Printf.printf "cache fill:   %6.2fs wall  (%d hit(s), %d miss(es))\n"
    oc1.Wap_core.Tool.Scan.result.Wap_core.Tool.analysis_seconds
    oc1.Wap_core.Tool.Scan.cache_hits oc1.Wap_core.Tool.Scan.cache_misses;
  Printf.printf
    "warm rescan:  %6.2fs wall  (%d hit(s), %d miss(es)) — unchanged files skipped\n"
    oc2.Wap_core.Tool.Scan.result.Wap_core.Tool.analysis_seconds
    oc2.Wap_core.Tool.Scan.cache_hits oc2.Wap_core.Tool.Scan.cache_misses;
  (* incremental-edit kernel: a session over a 100-file project, then
     repeated summary-preserving edits of one function-free file — the
     [wap serve] steady state.  Each round measures update + renewed
     per-file diagnostics; min-of-rounds against a fresh batch scan of
     the same project. *)
  let inc_files = List.filteri (fun i _ -> i < 100) files in
  let edit_path, edit_src =
    let no_funcs (path, src) =
      Wap_php.Visitor.collect_functions
        (fst (Wap_php.Parser.parse_string_tolerant ~file:path src))
      = []
    in
    match List.find_opt no_funcs inc_files with
    | Some f -> f
    | None -> List.hd inc_files
  in
  let inc_request =
    Wap_engine.Session.request ~jobs:1
      ~fingerprint:(Wap_core.Tool.Scan.fingerprint tool)
      ~specs:tool.Wap_core.Tool.specs inc_files
  in
  let session = Wap_engine.Session.open_project inc_request in
  let inc_reran = ref 0 in
  let inc_best = ref infinity and inc_total = ref 0. in
  let inc_rounds = 20 in
  for i = 1 to inc_rounds do
    (* alternate two variants so every round really changes the digest *)
    let src = if i mod 2 = 0 then edit_src else edit_src ^ "\n" in
    let t0 = Unix.gettimeofday () in
    let reran = Wap_engine.Session.update_file session ~path:edit_path src in
    ignore (Wap_engine.Session.diagnostics session ~path:edit_path);
    let w = Unix.gettimeofday () -. t0 in
    inc_reran := List.length reran;
    inc_total := !inc_total +. w;
    if w < !inc_best then inc_best := w
  done;
  let inc_mean = !inc_total /. float_of_int inc_rounds in
  let inc_full =
    let t0 = Unix.gettimeofday () in
    ignore (Wap_engine.Session.run inc_request);
    Unix.gettimeofday () -. t0
  in
  let inc_speedup = if !inc_best > 0. then inc_full /. !inc_best else 0. in
  Printf.printf
    "incremental edit (session, %d files, %d re-analyzed): %.2fms min / \
     %.2fms mean — full rescan %.1fms (%.0fx)%s\n"
    (List.length inc_files) !inc_reran (1000. *. !inc_best)
    (1000. *. inc_mean) (1000. *. inc_full) inc_speedup
    (if !inc_best < 0.010 then "" else "  [above the 10ms target]");
  (* telemetry overhead: the same full-corpus scan with the daemon's
     observability plane on (bounded ring tracer + wall-clock log
     timestamps) vs off.  Each round times the two sides back to back —
     scheduler and thermal drift is correlated over adjacent ~100ms
     windows, so drift hits both sides — and the gate compares the
     MINIMUM of each side across all rounds.  Two further defences
     against shared-host noise: the sides are timed in CPU seconds
     ([Sys.time], microsecond granularity), which scheduler preemption
     by neighbour tenants cannot inflate the way it inflates wall
     clock, while every real telemetry cost (clock reads, ring stores,
     the GC work they cause) is still in-process CPU; and the minimum
     across rounds converges on the true cost because the remaining
     noise (GC slices, frequency steps) is strictly additive.  No
     [Gc.compact] between rounds on purpose: compaction makes the heap
     layout deterministic per side, so an unlucky cache-alignment of
     the traced side's layout persists for every round of an
     invocation and reads as phantom overhead — letting the layout
     drift round to round turns that bias into noise the min absorbs. *)
  let obs_scan () =
    let t0 = Sys.time () in
    ignore (Wap_core.Tool.Scan.run tool (Wap_core.Tool.Scan.request ~jobs:1 files));
    Sys.time () -. t0
  in
  (* ONE tracer for every on-round, created before the warm-up and kept
     alive across the off-rounds too: its ring (a fixed array, full
     after the warm-up) is then part of the live set on both sides, so
     the [Gc.compact] in [obs_scan] produces the same heap layout for
     both and the ratio measures per-event cost, not an
     alignment-lottery difference between two layouts *)
  let tracer = Wap_obs.Trace.create ~ring_capacity:4096 () in
  let obs_on () =
    Wap_obs.Trace.set_global (Some tracer);
    Wap_obs.Log.set_timestamps true
  in
  let obs_off () =
    Wap_obs.Trace.set_global None;
    Wap_obs.Log.set_timestamps false
  in
  obs_on ();
  ignore (obs_scan ()) (* warm-up: allocator, code paths, the ring *);
  obs_off ();
  let rounds = 13 in
  let w_plain = ref infinity and w_obs = ref infinity in
  for round = 1 to rounds do
    (* counterbalance within-pair order: second position is usually the
       warmer one, and always giving it to the same side would bias the
       ratio *)
    let p, o =
      if round land 1 = 1 then begin
        obs_off ();
        let p = obs_scan () in
        obs_on ();
        (p, obs_scan ())
      end
      else begin
        obs_on ();
        let o = obs_scan () in
        obs_off ();
        (obs_scan (), o)
      end
    in
    if p < !w_plain then w_plain := p;
    if o < !w_obs then w_obs := o
  done;
  obs_off ();
  let obs_ratio = if !w_plain > 0. then !w_obs /. !w_plain else 0. in
  Printf.printf
    "telemetry overhead (%d files, jobs=1, min of %d alternating rounds \
     per side, cpu): plain %.3fs, ring tracer + timestamps %.3fs — ratio \
     %.3fx\n"
    (List.length files) rounds !w_plain !w_obs obs_ratio;
  (* machine-readable companion for CI trend tracking *)
  let wc1 = oc1.Wap_core.Tool.Scan.result.Wap_core.Tool.analysis_seconds in
  let wc2 = oc2.Wap_core.Tool.Scan.result.Wap_core.Tool.analysis_seconds in
  let module J = Wap_report.Json in
  let phase_obj (o : Wap_core.Tool.Scan.outcome) =
    J.Obj
      (List.map
         (fun (k, s) -> (k, J.Float s))
         o.Wap_core.Tool.Scan.result.Wap_core.Tool.phase_seconds)
  in
  let doc =
    J.Obj
      [
        ("kernel", J.Str "scan");
        ("files", J.Int (List.length files));
        ("packages", J.Int (List.length profiles));
        ("specs", J.Int (List.length tool.Wap_core.Tool.specs));
        ("cores", J.Int cores);
        ("jobs_parallel", J.Int par_jobs);
        ("cold_jobs1_wall_seconds", J.Float w1);
        ( "cold_jobs1_cpu_seconds",
          J.Float o1.Wap_core.Tool.Scan.result.Wap_core.Tool.analysis_cpu_seconds );
        ("cold_parallel_wall_seconds", J.Float wp);
        ( "cold_parallel_cpu_seconds",
          J.Float opar.Wap_core.Tool.Scan.result.Wap_core.Tool.analysis_cpu_seconds );
        ( "speedup",
          match par_speedup with Some s -> J.Float s | None -> J.Null );
        ("per_spec_jobs1_wall_seconds", J.Float wns);
        ("fused_speedup", J.Float fused_speedup);
        ("parse_ref_jobs1_wall_seconds", J.Float w_parse_ref);
        ("parse_jobs1_wall_seconds", J.Float w_parse);
        ("parse_speedup", J.Float parse_speedup);
        ("phases_fused_jobs1", phase_obj o1);
        ("deterministic", J.Bool same);
        ( "candidates",
          J.Int (List.length o4.Wap_core.Tool.Scan.result.Wap_core.Tool.candidates) );
        ("cache_fill_wall_seconds", J.Float wc1);
        ("warm_rescan_wall_seconds", J.Float wc2);
        ( "cache_rescan_ratio",
          J.Float (if wc1 > 0. then wc2 /. wc1 else 0.) );
        ("warm_cache_hits", J.Int oc2.Wap_core.Tool.Scan.cache_hits);
        ("warm_cache_misses", J.Int oc2.Wap_core.Tool.Scan.cache_misses);
        ("incremental_project_files", J.Int (List.length inc_files));
        ("incremental_edit_reanalyzed", J.Int !inc_reran);
        ("incremental_edit_wall_seconds", J.Float !inc_best);
        ("incremental_edit_mean_wall_seconds", J.Float inc_mean);
        ("incremental_full_rescan_wall_seconds", J.Float inc_full);
        ("incremental_speedup", J.Float inc_speedup);
        ("obs_plain_cpu_seconds", J.Float !w_plain);
        ("obs_on_cpu_seconds", J.Float !w_obs);
        ("obs_overhead_ratio", J.Float obs_ratio);
      ]
  in
  let oc = open_out "BENCH_scan.json" in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  print_string "wrote BENCH_scan.json\n";
  print_newline ();
  if check_fused && fused_speedup < 1.0 then begin
    Printf.eprintf
      "FAIL: fused analysis slower than the per-spec reference (speedup \
       %.2fx < 1.0)\n"
      fused_speedup;
    exit 1
  end;
  if check_obs && obs_ratio > 1.05 then begin
    Printf.eprintf
      "FAIL: telemetry overhead above the 5%% budget (ratio %.3fx > 1.05)\n"
      obs_ratio;
    exit 1
  end;
  if check_parse && parse_speedup < 1.3 then begin
    Printf.eprintf
      "FAIL: buffer scanner below the parse-speedup floor (speedup %.2fx < \
       1.3)\n"
      parse_speedup;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Fleet kernel: multi-project sharding vs a single process.           *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let write_projects dir projects =
  List.iter
    (fun (name, (pkg : Wap_corpus.Appgen.package)) ->
      List.iter
        (fun (f : Wap_corpus.Appgen.file) ->
          let path =
            Filename.concat (Filename.concat dir name)
              f.Wap_corpus.Appgen.f_name
          in
          mkdir_p (Filename.dirname path);
          let oc = open_out_bin path in
          output_string oc f.Wap_corpus.Appgen.f_source;
          close_out oc)
        pkg.Wap_corpus.Appgen.pkg_files)
    projects

let run_fleet ?(check_fleet = false) () =
  let n_projects = 10 and project_files = 240 in
  let root = "_bench_fleet_corpus" in
  let cache_1 = "_bench_fleet_cache1" and cache_2 = "_bench_fleet_cache2" in
  let scratch = [ root; cache_1; cache_2 ] in
  List.iter (fun d -> if Sys.file_exists d then rm_rf d) scratch;
  write_projects root
    (Wap_corpus.Corpus.generated_projects ~seed ~files:project_files
       ~count:n_projects ());
  let dirs = Wap_fleet.Coordinator.discover [ root ] in
  let total_files =
    List.fold_left
      (fun n dir -> n + List.length (Wap_fleet.Worker.php_files dir))
      0 dirs
  in
  print_string "== Fleet (lib/fleet) ==\n";
  Printf.printf
    "corpus: %d projects, %d files, sharing a %d-file framework layer\n"
    (List.length dirs) total_files
    (List.length (Wap_corpus.Corpus.shared_layer ~seed ()));
  (* each run gets its own fresh cache directory: neither side may
     inherit the other's warm disk cache *)
  let fleet_run ~cache_dir workers =
    Wap_fleet.Coordinator.run
      {
        Wap_fleet.Coordinator.fc_workers = workers;
        fc_worker_jobs = 1;
        fc_cache_dir = Some cache_dir;
        fc_summary_store = true;
        (* progress lines would pollute the timed runs' stderr *)
        fc_progress = false;
      }
      ~dirs
  in
  let rp1 = (fleet_run ~cache_dir:cache_1 1).Wap_fleet.Coordinator.report in
  let rp = (fleet_run ~cache_dir:cache_2 2).Wap_fleet.Coordinator.report in
  let w_single = rp1.Wap_fleet.Coordinator.rp_wall_seconds in
  let w_fleet = rp.Wap_fleet.Coordinator.rp_wall_seconds in
  let cores = Domain.recommended_domain_count () in
  (* two workers on one core just time-slice; the ratio is scheduler
     noise, not a parallel speedup — report it as not-measured, exactly
     like the scan kernel's [speedup] *)
  let fleet_speedup =
    if cores < 2 then None
    else Some (if w_fleet > 0. then w_single /. w_fleet else 0.)
  in
  Printf.printf "fleet, 1 worker (single scanning process): %6.2fs wall\n"
    w_single;
  let speedup_str =
    match fleet_speedup with
    | Some s -> Printf.sprintf "%.2fx" s
    | None -> Printf.sprintf "n/a — host reports %d core(s)" cores
  in
  Printf.printf
    "fleet, 2 workers: %6.2fs wall — speedup %s, %.1f projects/s, %.1f \
     files/s, dedup hit ratio %.2f\n"
    w_fleet speedup_str rp.Wap_fleet.Coordinator.rp_projects_per_second
    rp.Wap_fleet.Coordinator.rp_files_per_second
    rp.Wap_fleet.Coordinator.rp_dedup_hit_ratio;
  (* fold the fleet numbers into the engine kernel's CI document *)
  let module J = Wap_report.Json in
  let fleet_fields =
    [ ("fleet_projects", J.Int rp.Wap_fleet.Coordinator.rp_projects);
      ("fleet_single_process_wall_seconds", J.Float w_single);
      ("fleet_wall_seconds", J.Float w_fleet);
      ( "fleet_speedup",
        match fleet_speedup with Some s -> J.Float s | None -> J.Null );
      ( "fleet_projects_per_second",
        J.Float rp.Wap_fleet.Coordinator.rp_projects_per_second );
      ( "fleet_files_per_second",
        J.Float rp.Wap_fleet.Coordinator.rp_files_per_second );
      ( "fleet_dedup_hit_ratio",
        J.Float rp.Wap_fleet.Coordinator.rp_dedup_hit_ratio ) ]
  in
  (match J.of_string (Wap_php.Io.read_file "BENCH_scan.json") with
  | Ok (J.Obj fields) ->
      let oc = open_out "BENCH_scan.json" in
      output_string oc (J.to_string (J.Obj (fields @ fleet_fields)));
      output_char oc '\n';
      close_out oc;
      print_string "updated BENCH_scan.json with fleet metrics\n"
  | Ok _ | Error _ | (exception Sys_error _) ->
      print_string "BENCH_scan.json not found; fleet metrics not recorded\n");
  print_newline ();
  List.iter rm_rf scratch;
  if check_fleet then begin
    let failed =
      rp1.Wap_fleet.Coordinator.rp_failed @ rp.Wap_fleet.Coordinator.rp_failed
    in
    if failed <> [] then begin
      Printf.eprintf "FAIL: fleet projects failed: %s\n"
        (String.concat ", " failed);
      exit 1
    end;
    if not (rp.Wap_fleet.Coordinator.rp_dedup_hit_ratio > 0.) then begin
      Printf.eprintf
        "FAIL: fleet dedup hit ratio is 0 on the shared-layer corpus\n";
      exit 1
    end;
    (* a 2-worker fleet can only beat one process when there are at
       least two cores to run the workers on; on a 1-core host the
       speedup is null and the gate skips *)
    match fleet_speedup with
    | Some s when s < 1.0 ->
        Printf.eprintf
          "FAIL: 2-worker fleet slower than a single process (speedup %.2fx < \
           1.0)\n"
          s;
        exit 1
    | Some _ | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Cold-start kernel: fresh `wap analyze --json` processes on one-line  *)
(* files, the fixed cost a single-file run pays.                        *)

(* linear-interpolated quantile of a sorted array *)
let quantile sorted q =
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then sorted.(n - 1)
  else sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

(* the CLI is built next to this binary: _build/default/{bench,bin} *)
let wap_cli () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "wap_cli.exe")

let run_cold_start () =
  let runs = 11 in
  let wap = wap_cli () in
  print_string "== Cold start (wap analyze --json, one-line file) ==\n";
  if not (Sys.file_exists wap) then
    Printf.printf "%s not built; cold-start kernel skipped\n\n" wap
  else begin
    let time_runs ~expect src =
      let php = Filename.temp_file "wap_cold" ".php" in
      let out = Filename.temp_file "wap_cold" ".json" in
      let oc = open_out_bin php in
      output_string oc src;
      close_out oc;
      let run () =
        let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
        let t0 = Unix.gettimeofday () in
        let pid =
          Unix.create_process wap [| wap; "analyze"; "--json"; php |]
            Unix.stdin fd Unix.stderr
        in
        let _, status = Unix.waitpid [] pid in
        let ms = 1e3 *. (Unix.gettimeofday () -. t0) in
        Unix.close fd;
        if status <> Unix.WEXITED 0 then failwith "cold start: wap analyze failed";
        ms
      in
      (* one discarded run first: the page cache, not the tool, would
         otherwise decide the first sample *)
      ignore (run ());
      let samples = Array.init runs (fun _ -> run ()) in
      let findings =
        let module J = Wap_report.Json in
        match J.of_string (Wap_php.Io.read_file out) with
        | Ok doc -> (
            match Option.bind (J.member "findings" doc) J.to_list_opt with
            | Some l -> List.length l
            | None -> -1)
        | Error _ -> -1
      in
      Sys.remove php;
      Sys.remove out;
      if findings <> expect then
        failwith
          (Printf.sprintf "cold start: expected %d finding(s), got %d" expect
             findings);
      Array.sort compare samples;
      let median = quantile samples 0.5 in
      let iqr = quantile samples 0.75 -. quantile samples 0.25 in
      (median, iqr)
    in
    let kernels =
      [ ("cold_start_nofinding_ms", "no finding", 0, "<?php echo \"hello\";\n");
        ("cold_start_finding_ms", "one finding", 1, "<?php echo $_GET[\"x\"];\n") ]
    in
    let module J = Wap_report.Json in
    let fields =
      List.map
        (fun (key, label, expect, src) ->
          let median, iqr = time_runs ~expect src in
          Printf.printf "%s: median %.1f ms, IQR %.1f ms (%d processes)\n"
            label median iqr runs;
          ( key,
            J.Obj
              [ ("median", J.Float median); ("iqr", J.Float iqr);
                ("runs", J.Int runs) ] ))
        kernels
    in
    (match J.of_string (Wap_php.Io.read_file "BENCH_scan.json") with
    | Ok (J.Obj old) ->
        let oc = open_out "BENCH_scan.json" in
        output_string oc (J.to_string (J.Obj (old @ fields)));
        output_char oc '\n';
        close_out oc;
        print_string "updated BENCH_scan.json with cold-start metrics\n"
    | Ok _ | Error _ | (exception Sys_error _) ->
        print_string "BENCH_scan.json not found; cold-start metrics not recorded\n");
    print_newline ()
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks.                                          *)

let sample_php =
  {php|<?php
$user = $_GET['user'];
$pass = trim($_POST['pass']);
if (!preg_match('/^[a-z0-9]+$/', $user)) { die('bad'); }
$q = "SELECT * FROM users WHERE u = '$user' AND p = '$pass' LIMIT 1";
$r = mysql_query($q);
while ($row = mysql_fetch_assoc($r)) {
    echo "<td>" . $row['u'] . "</td>";
}
function helper($x) { return "[" . substr($x, 0, 8) . "]"; }
header("Location: " . $_GET['next']);
|php}

let small_pkg =
  Wap_corpus.Appgen.of_webapp_profile ~seed
    (List.nth Wap_corpus.Profiles.vulnerable_webapps 5 (* divine: 5 files *))

let staged = Staged.stage

let substrate_tests () =
  let tokens () = Wap_php.Lexer.tokenize ~file:"bench.php" sample_php in
  let program = Wap_php.Parser.parse_string ~file:"bench.php" sample_php in
  let unit_ = [ { Wap_taint.Analyzer.path = "bench.php"; program } ] in
  let sqli_spec = Wap_catalog.Catalog.default_spec Wap_catalog.Vuln_class.Sqli in
  let xss_spec =
    Wap_catalog.Catalog.default_spec Wap_catalog.Vuln_class.Xss_reflected
  in
  let catalog_specs =
    (Wap_core.Tool.create ~seed Wap_core.Version.Wape).Wap_core.Tool.specs
  in
  let candidates = Wap_taint.Analyzer.analyze_project ~spec:sqli_spec unit_ in
  let dataset = Wap_core.Training.dataset_for ~seed Wap_core.Version.Wape in
  let svm = Wap_mining.Svm.train ~seed dataset in
  let sample_vec =
    match dataset.Wap_mining.Dataset.instances with
    | i :: _ -> i.Wap_mining.Dataset.features
    | [] -> [||]
  in
  [
    Test.make ~name:"lexer" (staged tokens);
    Test.make ~name:"parser"
      (staged (fun () -> Wap_php.Parser.parse_string ~file:"bench.php" sample_php));
    Test.make ~name:"printer"
      (staged (fun () -> Wap_php.Printer.program_to_string program));
    Test.make ~name:"taint-query-submodule"
      (staged (fun () -> Wap_taint.Analyzer.analyze_project ~spec:sqli_spec unit_));
    Test.make ~name:"taint-clientside-submodule"
      (staged (fun () -> Wap_taint.Analyzer.analyze_project ~spec:xss_spec unit_));
    (* fused_vs_per_spec: the same full-catalog analysis, one fused pass
       vs one single-spec pass per spec — the micro view of the scan
       engine's fused_speedup *)
    Test.make ~name:"taint-full-catalog-fused"
      (staged (fun () ->
           Wap_taint.Analyzer.analyze_with_specs ~specs:catalog_specs unit_));
    Test.make ~name:"taint-full-catalog-per-spec"
      (staged (fun () ->
           List.concat_map
             (fun spec -> Wap_taint.Analyzer.analyze_project ~spec unit_)
             catalog_specs));
    Test.make ~name:"symptom-collection"
      (staged (fun () -> List.map Wap_mining.Evidence.collect candidates));
    Test.make ~name:"svm-train"
      (staged (fun () -> Wap_mining.Svm.train ~seed dataset));
    Test.make ~name:"logistic-train"
      (staged (fun () -> Wap_mining.Logistic.train dataset));
    Test.make ~name:"random-forest-train"
      (staged (fun () ->
           Wap_mining.Random_forest.train
             ~params:{ Wap_mining.Random_forest.n_trees = 15; max_depth = 10 }
             ~seed dataset));
    Test.make ~name:"svm-predict" (staged (fun () -> Wap_mining.Svm.predict svm sample_vec));
    Test.make ~name:"weapon-generation"
      (staged (fun () -> Wap_weapon.Generator.wpsqli ()));
    Test.make ~name:"fix-insertion"
      (staged (fun () ->
           Wap_fixer.Corrector.correct_source ~file:"bench.php" sample_php candidates));
    Test.make ~name:"dynamic-confirmation"
      (staged (fun () ->
           List.map
             (fun c -> Wap_confirm.Confirm.confirm_candidate ~program c)
             candidates));
  ]

(* one kernel per paper table/figure: the computation that regenerates
   it, at a size small enough to sample *)
let experiment_tests () =
  let dataset = Wap_core.Training.dataset_for ~seed Wap_core.Version.Wape in
  let tool = Wap_core.Tool.create ~seed Wap_core.Version.Wape in
  [
    Test.make ~name:"table1-symptom-catalog" (staged (fun () -> E.table1 ()));
    Test.make ~name:"table2-crossval-svm"
      (staged (fun () ->
           Wap_mining.Evaluation.cross_validate ~k:10 ~seed
             Wap_mining.Svm.algorithm dataset));
    Test.make ~name:"table3-confusion"
      (staged (fun () ->
           Wap_mining.Evaluation.resubstitution ~seed
             Wap_mining.Logistic.algorithm dataset));
    Test.make ~name:"table4-sink-catalog" (staged (fun () -> E.table4 ()));
    Test.make ~name:"table5-6-pipeline-per-app"
      (staged (fun () ->
           (Wap_core.Tool.Scan.run tool
              (Wap_core.Tool.Scan.request_of_package small_pkg))
             .Wap_core.Tool.Scan.result));
    Test.make ~name:"table7-plugin-pipeline"
      (staged (fun () ->
           let _, pkg = List.hd (Wap_corpus.Corpus.vulnerable_plugins ~seed ()) in
           (Wap_core.Tool.Scan.run tool (Wap_core.Tool.Scan.request_of_package pkg))
             .Wap_core.Tool.Scan.result));
    Test.make ~name:"fig4-histogram"
      (staged (fun () ->
           List.map
             (fun (p : Wap_corpus.Profiles.plugin_profile) ->
               p.Wap_corpus.Profiles.pp_downloads)
             Wap_corpus.Profiles.all_plugins));
    Test.make ~name:"fig5-aggregation"
      (staged (fun () -> Wap_corpus.Profiles.webapp_class_totals ()));
  ]

let run_bechamel () =
  let tests =
    Test.make_grouped ~name:"wap"
      [ Test.make_grouped ~name:"substrate" (substrate_tests ());
        Test.make_grouped ~name:"experiments" (experiment_tests ()) ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> est
        | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) !rows in
  print_newline ();
  print_string "== Bechamel micro-benchmarks (monotonic clock) ==\n";
  Printf.printf "%-42s %16s\n" "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "%-42s %16s\n" name human)
    rows;
  print_newline ()

(* the bench binary doubles as the fleet worker when the fleet kernel
   spawns it — must run before cmdline parsing *)
let () = Wap_fleet.Worker.maybe_main ()

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let tables_only = List.mem "--tables-only" args in
  let bench_only = List.mem "--bench-only" args in
  let engine_only = List.mem "--engine-only" args in
  let check_fused = List.mem "--check-fused" args in
  let check_obs = List.mem "--check-obs" args in
  let check_fleet = List.mem "--check-fleet" args in
  let check_parse = List.mem "--check-parse" args in
  if engine_only then begin
    run_scan_engine ~check_fused ~check_obs ~check_parse ();
    run_fleet ~check_fleet ();
    run_cold_start ()
  end
  else begin
    if not bench_only then print_tables ~quick ();
    run_scan_engine ~check_fused ~check_obs ~check_parse ();
    run_fleet ~check_fleet ();
    run_cold_start ();
    if not tables_only then run_bechamel ()
  end
