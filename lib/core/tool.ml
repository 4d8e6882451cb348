(** The WAP tool pipeline (Fig. 1): code analyzer -> false positive
    predictor -> code corrector, assembled for one of the two tool
    versions, optionally equipped with weapons. *)

module VC = Wap_catalog.Vuln_class
module Cat = Wap_catalog.Catalog

type t = {
  version : Version.t;
  specs : Cat.spec list;  (** active detectors, sub-modules + weapons *)
  predictor : Wap_mining.Predictor.t;
  weapons : Wap_weapon.Weapon.t list;
}

(** The data set [create] trains on when none is given: the copy
    embedded at build time for the default seed, else built now. *)
let default_dataset ~seed (version : Version.t) : Wap_mining.Dataset.t =
  Wap_obs.Trace.with_span ~cat:"core" "training.dataset" @@ fun () ->
  if seed = Embedded_datasets.seed then
    Wap_mining.Dataset.of_csv
      ~mode:(Version.attribute_mode version)
      (Embedded_datasets.csv version)
  else Training.dataset_for ~seed version

(** Create a tool instance.

    [weapons] adds weapon detectors (and their dynamic symptoms);
    [extra_sanitizers] registers user sanitization functions for
    specific classes, the §V-A "escape" extensibility mechanism —
    [None] as the class applies to every detector. *)
let create ?(seed = 2016) ?(weapons = []) ?(extra_sanitizers = []) ?dataset
    (version : Version.t) : t =
  let base_specs = Cat.specs_for (Version.classes version) in
  let weapon_specs = List.map (fun w -> w.Wap_weapon.Weapon.spec) weapons in
  let apply_extra (spec : Cat.spec) =
    let extras =
      List.filter_map
        (fun (cls, fn) ->
          match cls with
          | None -> Some (Cat.San_fn fn)
          | Some c when VC.equal c spec.Cat.vclass -> Some (Cat.San_fn fn)
          | Some _ -> None)
        extra_sanitizers
    in
    { spec with Cat.sanitizers = spec.Cat.sanitizers @ extras }
  in
  let specs = List.map apply_extra (base_specs @ weapon_specs) in
  let dynamic =
    List.concat_map (fun w -> w.Wap_weapon.Weapon.dynamic_symptoms) weapons
  in
  let config =
    Wap_mining.Predictor.with_dynamic_symptoms
      (Version.predictor_config version)
      dynamic
  in
  (* an explicit data set trains now, so a bad one fails at startup;
     the default one is only built (and trained on) by the first
     classification *)
  let predictor =
    match dataset with
    | Some d -> Wap_mining.Predictor.train ~seed config d
    | None ->
        Wap_mining.Predictor.deferred ~seed config (fun () ->
            default_dataset ~seed version)
  in
  { version; specs; predictor; weapons }

(* ------------------------------------------------------------------ *)
(* Analysis results.                                                   *)

type finding = {
  candidate : Wap_taint.Trace.candidate;
  predicted_fp : bool;
  symptoms : string list;  (** justification (Fig. 3) *)
}

type package_result = {
  package : Wap_corpus.Appgen.package;
  files_analyzed : int;
  loc : int;
  analysis_seconds : float;  (** wall clock *)
  analysis_cpu_seconds : float;  (** process CPU, all worker domains *)
  phase_seconds : (string * float) list;
      (** wall clock per pipeline phase, in order: the engine's [parse],
          [digest], [analyze], [merge] plus this layer's [predict]
          (dedup + FP classification, and the predictor's training
          when this scan is the first to classify); sums to nearly
          [analysis_seconds] *)
  candidates : Wap_taint.Trace.candidate list;  (** de-duplicated *)
  findings : finding list;
  reported : Wap_taint.Trace.candidate list;  (** predicted real -> reported *)
  predicted_fps : Wap_taint.Trace.candidate list;
}

(** De-duplicate candidates found by several detectors for the same sink
    location and report group (e.g. RFI and LFI both firing on one
    include). *)
let dedup_candidates (cands : Wap_taint.Trace.candidate list) :
    Wap_taint.Trace.candidate list =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun c ->
      let key = Wap_taint.Trace.dedup_key c in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    cands

exception Parse_failure of string * string (* file, message *)

let parse_package (pkg : Wap_corpus.Appgen.package) :
    Wap_taint.Analyzer.file_unit list =
  List.map
    (fun (f : Wap_corpus.Appgen.file) ->
      try
        {
          Wap_taint.Analyzer.path = f.Wap_corpus.Appgen.f_name;
          program =
            Wap_php.Parser.parse_string ~file:f.Wap_corpus.Appgen.f_name
              f.Wap_corpus.Appgen.f_source;
        }
      with
      | Wap_php.Parser.Error (msg, loc) ->
          raise (Parse_failure (f.Wap_corpus.Appgen.f_name,
                                Printf.sprintf "%s at %s" msg (Wap_php.Loc.to_string loc)))
      | Wap_php.Lexer.Error (msg, loc) ->
          raise (Parse_failure (f.Wap_corpus.Appgen.f_name,
                                Printf.sprintf "%s at %s" msg (Wap_php.Loc.to_string loc))))
    pkg.Wap_corpus.Appgen.pkg_files

(* ------------------------------------------------------------------ *)
(* The unified Scan API: every entry point (CLI, experiments, bench,    *)
(* fuzz oracles, fleet workers) routes through one request/outcome pair *)
(* executed on a one-shot engine session.                               *)

module Scan = struct
  type request = {
    files : (string * string) list;  (** [(path, source)], one app *)
    jobs : int;  (** worker domains *)
    cache : Wap_engine.Cache.t option;
    summary_store : bool;
        (** content-addressed cross-project summary store (fleet
            workers); see {!Wap_engine.Session.request} *)
    on_progress : (Wap_engine.Session.progress -> unit) option;
    package : Wap_corpus.Appgen.package option;
        (** corpus package the files came from (ground truth, LoC);
            synthesized from [files] when absent *)
  }

  let request ?jobs ?cache ?(summary_store = false) ?on_progress ?package
      files =
    {
      files;
      jobs = Wap_engine.Config.jobs jobs;
      cache;
      summary_store;
      on_progress;
      package;
    }

  let request_of_package ?jobs ?cache ?summary_store ?on_progress
      (pkg : Wap_corpus.Appgen.package) =
    request ?jobs ?cache ?summary_store ?on_progress ~package:pkg
      (List.map
         (fun (f : Wap_corpus.Appgen.file) ->
           (f.Wap_corpus.Appgen.f_name, f.Wap_corpus.Appgen.f_source))
         pkg.Wap_corpus.Appgen.pkg_files)

  type outcome = {
    result : package_result;
    parse_errors : (string * Wap_php.Parser.recovered_error list) list;
        (** recovered errors of the files that needed recovery *)
    file_timings : Wap_engine.Session.file_report list;  (** input order *)
    spec_timings : Wap_engine.Session.spec_report list;  (** spec order *)
    jobs_used : int;
    cache_hits : int;
    cache_misses : int;
  }

  (** Cache-key material identifying this tool configuration: the
      version name and the full active spec set (sources, sinks,
      sanitizers — so added weapons or extra sanitizers invalidate). *)
  let fingerprint (t : t) : string =
    Wap_engine.Cache.key
      (Version.name t.version :: List.map Cat.show_spec t.specs)

  let run (t : t) (req : request) : outcome =
    let t0_wall = Unix.gettimeofday () and t0_cpu = Sys.time () in
    let pkg =
      match req.package with
      | Some pkg -> pkg
      | None ->
          {
            Wap_corpus.Appgen.pkg_name =
              (match req.files with (n, _) :: _ -> n | [] -> "<empty>");
            pkg_version = "";
            pkg_kind = Wap_corpus.Appgen.Webapp;
            pkg_files =
              List.map
                (fun (f_name, f_source) -> { Wap_corpus.Appgen.f_name; f_source })
                req.files;
            pkg_seeded = [];
          }
    in
    let engine =
      Wap_engine.Session.run
        (Wap_engine.Session.request ~jobs:req.jobs ?cache:req.cache
           ~fingerprint:(fingerprint t)
           ~summary_store:req.summary_store ?on_progress:req.on_progress
           ~specs:t.specs req.files)
    in
    let t0_predict = Unix.gettimeofday () in
    let candidates, findings =
      Wap_obs.Trace.with_span ~cat:"core" "phase.predict" (fun () ->
          let candidates = dedup_candidates engine.Wap_engine.Session.candidates in
          let findings =
            List.map
              (fun c ->
                {
                  candidate = c;
                  predicted_fp =
                    Wap_mining.Predictor.is_false_positive t.predictor c;
                  symptoms = Wap_mining.Predictor.justification t.predictor c;
                })
              candidates
          in
          (candidates, findings))
    in
    let t_predict = Unix.gettimeofday () -. t0_predict in
    let predicted_fps, reported =
      List.partition (fun f -> f.predicted_fp) findings
    in
    let result =
      {
        package = pkg;
        files_analyzed = List.length pkg.Wap_corpus.Appgen.pkg_files;
        loc = Wap_corpus.Appgen.loc_of_package pkg;
        analysis_seconds = Unix.gettimeofday () -. t0_wall;
        analysis_cpu_seconds = Sys.time () -. t0_cpu;
        phase_seconds =
          engine.Wap_engine.Session.phases @ [ ("predict", t_predict) ];
        candidates;
        findings;
        reported = List.map (fun f -> f.candidate) reported;
        predicted_fps = List.map (fun f -> f.candidate) predicted_fps;
      }
    in
    {
      result;
      parse_errors =
        List.filter_map
          (fun (r : Wap_engine.Session.file_report) ->
            match r.Wap_engine.Session.fr_errors with
            | [] -> None
            | errs -> Some (r.Wap_engine.Session.fr_path, errs))
          engine.Wap_engine.Session.file_reports;
      file_timings = engine.Wap_engine.Session.file_reports;
      spec_timings = engine.Wap_engine.Session.spec_reports;
      jobs_used = engine.Wap_engine.Session.jobs_used;
      cache_hits = engine.Wap_engine.Session.cache_hits;
      cache_misses = engine.Wap_engine.Session.cache_misses;
    }
end

(** Correct the reported vulnerabilities of a single source file,
    returning the fixed PHP. *)
let correct_source (t : t) ~file (src : string) : string * Wap_fixer.Corrector.report =
  let result = (Scan.run t (Scan.request [ (file, src) ])).Scan.result in
  Wap_fixer.Corrector.correct_source ~file src result.reported
