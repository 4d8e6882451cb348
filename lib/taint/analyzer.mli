(** The taint analyzer: one fused flow-sensitive pass computing
    candidate vulnerabilities for {e all} active detector specs at
    once.

    Taint is tracked as a per-spec vector ({!Env.taint}): entry points
    mark the components of the specs they feed, each spec's sanitizers
    kill only that spec's component, and a sink emits one candidate per
    spec whose component survives.  Components never interact across
    specs, so the fused run is — component by component — exactly the N
    independent single-spec runs, with the spec-independent work
    (traversal, environment bookkeeping, include splicing) done once. *)

open Wap_php

(** The validation functions recognized as guards (Table I's validation
    category, plus a few common membership checks). *)
val guard_fns : string list

val is_guard_fn : string -> bool

(** {2 Shared primitives}

    The pure, syntactic helpers of the AST walker, exported so the IR
    lowering ({!Wap_ir}) resolves the very same renderings, guard keys
    and structural facts at lowering time, and the walker's summary
    application, which the IR executor calls as is.  The engine runs
    only the walker; the IR is a test and benchmark-replay reference whose
    candidates must match the walker's exactly ([scan-ir-equiv]), and a
    private copy in the IR would be a drift hazard for that contract. *)

(** Case normalization applied to every function/method name before a
    catalog or summary lookup. *)
val normalize_fn : string -> string

(** [isset]/[empty]/[is_null] — the checks whose negation also counts
    as validation evidence ([if (empty($x)) ... else <$x is set>]). *)
val set_check_fns : string list

(** Builtins whose return value is never attacker-controlled text even
    when their arguments are tainted (query handles, counters, ...). *)
val return_clean_fns : string list

(** Variables (and rendered superglobal accesses, as ["@sg:..."] keys)
    validated by a guard call's arguments. *)
val guarded_keys_of_args : Ast.arg list -> string list

(** Guard calls appearing syntactically inside an expression, as
    [(normalized name, guarded keys)] pairs. *)
val guard_calls_in : Ast.expr -> (string * string list) list

(** Syntactic literal/dynamic structure of an expression ([qpart]s). *)
val flatten_parts : Ast.expr -> Trace.qpart list

(** printf-style format string split into literal segments and holes. *)
val split_format : string -> Trace.qpart list

(** Does a statement list end in a control-flow exit? *)
val terminates : Ast.stmt list -> bool

(** Does a statement list end specifically in [exit]/[die]? *)
val terminates_with_exit : Ast.stmt list -> bool

(** Rendering of a cast operator for [through] evidence, e.g. ["(int)"]. *)
val cast_name : Ast.cast -> string

(** Truncated source rendering used in steps and source names. *)
val render_expr : Ast.expr -> string

(** De-duplication key of one (spec, sink, sources) emission. *)
val candidate_key :
  id:int -> file:string -> sink_name:string -> loc:Loc.t ->
  sources:string list -> string

(** [apply_summary_taints ~emit ~loc fs taints ~ids]: a call at [loc]
    to the function summarized by [fs], with argument taints [taints]
    (position, vector), for the specs [ids].  Reports each tainted
    argument that reaches a sink inside the callee through [emit] (spec
    by spec, in [ids] order) and returns the call's result taint.
    Specs whose argument origins are physically shared get physically
    shared result origins, so the cost of a call does not grow with the
    number of specs. *)
val apply_summary_taints :
  emit:
    (id:int -> sink_name:string -> sink_loc:Loc.t ->
     tainted:(int * Trace.origin) list -> unit) ->
  loc:Loc.t -> Summary.fused -> (int * Env.taint) list -> ids:int list ->
  Env.taint

(** One parsed source file of an application. *)
type file_unit = { path : string; program : Ast.program }

(** Top-level [include]/[require] of project files (matched by base
    name, literal paths only) spliced in place, so taint set up in an
    included file flows into the includer.  Cycles and chains deeper
    than 8 are cut. *)
val splice_includes :
  units:file_unit list -> depth:int -> visited:string list ->
  Ast.program -> Ast.program

(** {2 Per-file steps}

    The analysis of a (spec set, project) pair decomposes into per-file
    sweeps over a {!project_state} that owns every piece of mutable
    state — no globals, so any number of states can be driven
    concurrently (the parallel scan engine runs one per project). *)

type project_state

val project_state :
  ?interprocedural:bool -> specs:Wap_catalog.Catalog.spec list -> unit ->
  project_state

(** Pass-1 step: compute and register the summaries of one file's
    functions (each visible to the functions and files after it).
    Sequential, in file order. *)
val summarize_file : project_state -> file_unit -> unit

(** {!summarize_file}, returning the summaries it registered (this
    file's pass-1 delta, function order).  A pass-1 delta depends only
    on the file's own source, the active specs and the summaries
    registered before it, so a caller that replays the same file order
    can persist deltas and {!register_summaries} them instead of
    re-analyzing — the engine's cross-project summary store. *)
val summarize_file_delta : project_state -> file_unit -> Summary.fused list

(** Register previously computed pass-1 summaries (a persisted delta)
    exactly as {!summarize_file} would have. *)
val register_summaries : project_state -> Summary.fused list -> unit

(** Pass-2 step: the candidates found inside one file's function bodies
    (paired with the finding spec's id, discovery order), refining
    their summaries now that callees are known.  Sequential, in file
    order, on the shared state. *)
val analyze_file_functions :
  project_state -> file_unit -> (int * Trace.candidate) list

(** Pass-3 step: top-level flows of one file, with literal includes of
    project files ([units]) spliced in place.  Pure with respect to the
    state (fresh context, read-only summaries), so different files may
    run concurrently.  Candidates are de-duplicated within the file
    only; run {!finalize} over the concatenation. *)
val analyze_file_toplevel :
  project_state -> units:file_unit list -> file_unit ->
  (int * Trace.candidate) list

(** {2 Read-only views of a project state}

    Used by the IR reference ({!Wap_ir}) to drive its own pass-3 replay
    from the same specs, catalog lookup and summary table. *)

val state_specs : project_state -> Wap_catalog.Catalog.spec array
val state_lookup : project_state -> Wap_catalog.Catalog.Lookup.t
val state_summaries : project_state -> Summary.table

(** The base names a program's top-level literal includes resolve
    against — exactly the matching {!splice_includes} performs.  An
    incremental caller uses this to find the files that re-splice an
    edited one. *)
val include_basenames : Ast.program -> string list

(** Cross-file/cross-pass de-duplication (first emission wins) followed
    by the dead-sink filter.  Feed it pass-2 results (in file order)
    followed by pass-3 results (in file order). *)
val finalize :
  units:file_unit list ->
  (int * Trace.candidate) list ->
  (int * Trace.candidate) list

(** {!finalize} with a caller-supplied dead-sink predicate in place of
    the one built from [units] — byte-identical to [finalize] when
    [is_dead] is {!Wap_flow.Reach.is_dead} over the union of the
    units' dead sets (the session engine keeps that union per file). *)
val finalize_with :
  is_dead:(Loc.t -> bool) ->
  (int * Trace.candidate) list ->
  (int * Trace.candidate) list

(** Whole-project fused analysis: passes 1–3 over all files, finalized.
    Each candidate is paired with the id (list position in [specs]) of
    the spec that found it; candidates are in discovery order.

    [interprocedural:false] disables the summary mechanism (function
    bodies are still scanned for local flows, but taint no longer
    crosses call boundaries) — the ablation of DESIGN.md §6. *)
val analyze_project_indexed :
  ?interprocedural:bool ->
  specs:Wap_catalog.Catalog.spec list ->
  file_unit list ->
  (int * Trace.candidate) list

(** Analyze a set of files as one application under a single detector
    spec (the fused analysis of a one-spec set). *)
val analyze_project :
  ?interprocedural:bool ->
  spec:Wap_catalog.Catalog.spec ->
  file_unit list ->
  Trace.candidate list

(** Analyze a single parsed file. *)
val analyze_program :
  spec:Wap_catalog.Catalog.spec ->
  file:string ->
  Ast.program ->
  Trace.candidate list

(** Run several detector specs over the same project — one fused pass —
    and return the findings grouped by spec, in spec order (the shape a
    sequential run per sub-module configuration, as in Fig. 2, would
    produce). *)
val analyze_with_specs :
  ?interprocedural:bool ->
  specs:Wap_catalog.Catalog.spec list ->
  file_unit list ->
  Trace.candidate list
