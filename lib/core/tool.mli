(** The WAP tool pipeline (Fig. 1): code analyzer -> false positive
    predictor -> code corrector, assembled for one of the two tool
    versions, optionally equipped with weapons. *)

type t = {
  version : Version.t;
  specs : Wap_catalog.Catalog.spec list;
      (** active detectors: sub-modules + weapons *)
  predictor : Wap_mining.Predictor.t;
  weapons : Wap_weapon.Weapon.t list;
}

(** Create a tool instance.  The false-positive predictor is
    deterministic in the seed.  Without [dataset] it trains on
    {!Training.dataset_for}[ ~seed version] — parsed from
    {!Embedded_datasets} when [seed] is the default — when the first
    candidate is classified ({!Wap_mining.Predictor.deferred}), so a
    scan without candidates never trains it.  A given [dataset] trains
    now.

    [weapons] adds weapon detectors (and their dynamic symptoms);
    [extra_sanitizers] registers user sanitization functions — the §V-A
    "escape" extensibility mechanism ([(None, fn)] applies to every
    detector, [(Some cls, fn)] to one class); [dataset] supplies an
    external training set (the "trained data sets" input of Fig. 1)
    instead of generating one. *)
val create :
  ?seed:int ->
  ?weapons:Wap_weapon.Weapon.t list ->
  ?extra_sanitizers:(Wap_catalog.Vuln_class.t option * string) list ->
  ?dataset:Wap_mining.Dataset.t ->
  Version.t ->
  t

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
  reported : Wap_taint.Trace.candidate list;
      (** predicted real -> reported to the user *)
  predicted_fps : Wap_taint.Trace.candidate list;
}

(** De-duplicate candidates found by several detectors for the same sink
    location and report group (e.g. RFI and LFI both firing on one
    include). *)
val dedup_candidates :
  Wap_taint.Trace.candidate list -> Wap_taint.Trace.candidate list

(** A corpus file failed to parse: (file, message). *)
exception Parse_failure of string * string

(** Parse a package's files into analyzer units.
    @raise Parse_failure on malformed PHP. *)
val parse_package :
  Wap_corpus.Appgen.package -> Wap_taint.Analyzer.file_unit list

(** The unified scan API.  Every entry point — CLI, experiments,
    bench, fuzz oracles and fleet workers — routes through one
    request/outcome pair executed on a one-shot
    {!Wap_engine.Session.run}: tolerant parsing fans out over [jobs]
    worker domains, one fused taint pass covers all detector specs
    (per-file fan-out in its top-level stage), candidates merge
    deterministically, and an optional digest-keyed cache skips
    unchanged work.  Long-lived callers (the [wap serve] LSP daemon)
    drive {!Wap_engine.Session} directly for incremental re-analysis
    after edits. *)
module Scan : sig
  type request = {
    files : (string * string) list;  (** [(path, source)], one app *)
    jobs : int;  (** worker domains *)
    cache : Wap_engine.Cache.t option;
    summary_store : bool;
        (** persist pass-1 summary deltas in the cache under
            content-addressed chained prefix keys, shared across
            projects through a common cache directory; off by default,
            enabled by the fleet workers — see
            {!Wap_engine.Session.request} *)
    on_progress : (Wap_engine.Session.progress -> unit) option;
    package : Wap_corpus.Appgen.package option;
        (** corpus package the files came from (ground truth, LoC);
            synthesized from [files] when absent *)
  }

  (** Build a request.  [jobs] resolves through {!Wap_engine.Config}
      (environment gate [WAP_JOBS], flag-beats-env); omitting [cache]
      disables caching; [summary_store] defaults to off. *)
  val request :
    ?jobs:int ->
    ?cache:Wap_engine.Cache.t ->
    ?summary_store:bool ->
    ?on_progress:(Wap_engine.Session.progress -> unit) ->
    ?package:Wap_corpus.Appgen.package ->
    (string * string) list ->
    request

  (** A request over a corpus package's files. *)
  val request_of_package :
    ?jobs:int ->
    ?cache:Wap_engine.Cache.t ->
    ?summary_store:bool ->
    ?on_progress:(Wap_engine.Session.progress -> unit) ->
    Wap_corpus.Appgen.package ->
    request

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

  (** Cache-key material identifying this tool configuration: version
      name plus the full active spec set, so equipping weapons or extra
      sanitizers invalidates cached analysis results. *)
  val fingerprint : t -> string

  val run : t -> request -> outcome
end

(** Correct the reported vulnerabilities of a single source file,
    returning the fixed PHP. *)
val correct_source :
  t -> file:string -> string -> string * Wap_fixer.Corrector.report
