(** The session-oriented scan engine.

    {!open_project} runs the batch pipeline once — parse fan-out, the
    fused multi-spec taint analysis (one pass for every detector spec),
    digest-keyed caching — and {e retains} everything in memory: ASTs,
    per-file pass results, the analyzer state with its summary table
    and catalog lookup, per-file dead-sink sets.  {!export} finalizes
    and merges deterministically; {!run} is exactly
    [export (open_project req)], the one-shot batch scan behind
    [Wap_core.Tool.Scan.run].

    {!update_file}, {!add_file} and {!remove_file} apply {e targeted}
    invalidation instead of cold cache probes:

    - the touched file is re-parsed and its top-level pass (pass 3)
      re-run, together with the files whose top-level sweep can splice
      it (transitive reverse include closure, matched by base name
      like the splice itself);
    - its function-bodies pass (pass 2) is re-run only when the
      file's {e function-summary fingerprint} — the exact function
      list passes 1/2 consume, bodies and locations included —
      changes;
    - only when that fingerprint changes {e and} interprocedural
      analysis is on (so the shared summary table itself is stale)
      does the whole project re-analyze.

    Every re-analyzed file emits a [File_analyzed] progress event, so
    clients (and the invalidation tests) can observe exactly how much
    work an edit caused.  After any sequence of mutations the session
    exports byte-identically to a fresh {!run} over the same
    sources.

    Sessions are not thread-safe: drive each from one domain (the
    pass-3 fan-out parallelizes internally). *)

open Wap_php

(** Bumped whenever the marshalled shape of cached values changes;
    part of every cache key. *)
val cache_format_version : string

type progress =
  | File_parsed of { path : string; cached : bool }
  | File_analyzed of { path : string; cached : bool }
      (** one per file once its analysis (or cache assembly) is done —
          and, in a session, one per file a mutation re-analyzes *)

type request = {
  files : (string * string) list;  (** [(path, source)], scanned as one app *)
  specs : Wap_catalog.Catalog.spec list;  (** active detectors *)
  jobs : int;  (** worker domains; clamped to at least 1 *)
  cache : Cache.t option;
  fingerprint : string;
      (** tool-level cache-key material: version name plus the full
          active spec set, so changing either invalidates analysis
          entries *)
  interprocedural : bool;
  ir : bool;
      (** fused pass 3 runs over lowered three-address IR (default)
          instead of the AST walker; both produce byte-identical merged
          output, which is what the [scan-ir-equiv] fuzz oracle checks *)
  summary_store : bool;
      (** persist pass-1 summary deltas in the cache under
          content-addressed {e chained} keys — the key of file [i] is
          the running hash of the [(path, source digest)] prefix up to
          it, plus the spec-set fingerprint — so projects sharing a
          common file prefix (a vendored framework layer, ordered
          first) summarize it once {e across} projects.  Off by
          default (it changes the observable cache hit/miss profile);
          the fleet workers turn it on. *)
  on_progress : (progress -> unit) option;
      (** invoked in the calling domain, once per finished work item;
          see {!open_project}'s [on_event] for the generation-tagged
          variant *)
}

(** [request ~specs files] with defaults: [jobs] and [ir] resolved
    through {!Config} (environment gates [WAP_JOBS], [WAP_IR]), no
    cache, empty fingerprint, interprocedural on. *)
val request :
  ?jobs:int ->
  ?cache:Cache.t ->
  ?fingerprint:string ->
  ?interprocedural:bool ->
  ?ir:bool ->
  ?summary_store:bool ->
  ?on_progress:(progress -> unit) ->
  specs:Wap_catalog.Catalog.spec list ->
  (string * string) list ->
  request

type file_report = {
  fr_path : string;
  fr_seconds : float;  (** wall clock spent parsing this file *)
  fr_cached : bool;
  fr_errors : Parser.recovered_error list;
}

type spec_report = {
  sr_spec : string;  (** submodule/class label *)
  sr_cached : bool;  (** the whole analysis was served from the cache *)
  sr_candidates : int;
      (** candidates this detector found, before the cross-spec
          de-duplication of [Wap_core.Tool.dedup_candidates] *)
}

type outcome = {
  units : Wap_taint.Analyzer.file_unit list;  (** parsed files, input order *)
  candidates : Wap_taint.Trace.candidate list;
      (** merged (not yet de-duplicated), in the deterministic order
          of the scan engine *)
  file_reports : file_report list;  (** input order *)
  spec_reports : spec_report list;  (** spec order *)
  wall_seconds : float;
      (** wall clock of analysis work (open + mutations + exports) —
          idle time between session operations is not counted *)
  cpu_seconds : float;  (** process CPU, all domains aggregated *)
  phases : (string * float) list;
      (** per-phase wall clock, in pipeline order: [parse] (stage-1 pool
          fan-out), [digest] (project cache-key digest), [analyze]
          (stage-2 pool fan-out), [merge] (finalize + deterministic
          sort, measured at the latest export) *)
  jobs_used : int;
  cache_hits : int;  (** cache lookups served from the cache, this session *)
  cache_misses : int;
}

(** [merge groups] merges per-spec candidate lists — the [i]-th list
    found by the [i]-th active spec, in discovery order — in the
    engine's deterministic order: sink file, sink location, spec
    position, discovery order.  {!export} orders its candidates this
    way; tests use it to merge independent single-spec
    [Wap_taint.Analyzer.analyze_project] runs into the reference the
    fused analysis must reproduce. *)
val merge : Wap_taint.Trace.candidate list list -> Wap_taint.Trace.candidate list

(** An open session. *)
type t

(** A progress event tagged with the session generation it was
    produced at, so clients running edits asynchronously can discard
    notifications of a superseded edit: events whose [generation] is
    below the session's current one are stale. *)
type event = { generation : int; progress : progress }

(** Open a project: parse every file, run the analysis pipeline, retain
    all state.  The request's [on_progress] and the session-level
    [on_event] both fire for every work item (the latter
    generation-tagged); the open itself is generation [0]. *)
val open_project : ?on_event:(event -> unit) -> request -> t

(** [export (open_project req)] — the one-shot batch scan that
    [Wap_core.Tool.Scan.run] delegates to. *)
val run : request -> outcome

(** The number of mutations applied so far ([0] right after
    {!open_project}; each [update]/[add]/[remove] increments it). *)
val generation : t -> int

(** The active detector specs, in the (id-defining) request order. *)
val specs : t -> Wap_catalog.Catalog.spec list

(** Paths of the files currently in the project, project order. *)
val paths : t -> string list

val mem : t -> path:string -> bool

(** Replace the contents of [path] and re-analyze incrementally (see
    the module docs for the invalidation rules).  Returns the paths
    whose analysis re-ran.  Raises [Invalid_argument] if [path] is not
    in the project, or occurs more than once (duplicate paths are
    legal in batch requests but not addressable for mutation). *)
val update_file : t -> path:string -> string -> string list

(** Add a new file at the end of the project order and re-analyze
    incrementally.  Returns the paths whose analysis re-ran.  Raises
    [Invalid_argument] if [path] is already in the project. *)
val add_file : t -> path:string -> string -> string list

(** Remove [path] from the project and re-analyze the files whose
    top-level sweep spliced it.  Returns the paths whose analysis
    re-ran (never includes the removed path).  Removing an unknown
    path is a no-op returning [[]]. *)
val remove_file : t -> path:string -> string list

(** Finalized (de-duplicated, dead-sink-filtered) candidates of the
    whole project in the deterministic merge order, each paired with
    the index of the spec that found it (position in {!specs}).
    Memoized per generation, so calling it repeatedly between edits is
    free. *)
val all_diagnostics : t -> (int * Wap_taint.Trace.candidate) list

(** {!all_diagnostics} restricted to candidates whose sink file is
    [path]. *)
val diagnostics : t -> path:string -> (int * Wap_taint.Trace.candidate) list

(** Cheap live counters for monitoring surfaces ([wap serve]'s
    [/status]): unlike {!export}, reading them does no merge work
    beyond the per-generation memoized finalize. *)
type stats = {
  st_generation : int;
  st_files : int;  (** files currently in the project *)
  st_candidates : int;  (** finalized candidates at this generation *)
  st_cache_hits : int;  (** cache hits attributed to this session *)
  st_cache_misses : int;
}

val stats : t -> stats

(** The full outcome over the current project state — byte-identical
    to a fresh {!run} over the same sources, whatever mutations led
    here. *)
val export : t -> outcome
