(** Differential oracles over one fuzz input.

    An oracle states an invariant of the pipeline that must hold for
    {e every} input — totality, round-tripping, determinism,
    monotonicity, soundness — so any violation is a bug by construction,
    not a judgement call about detection quality. *)

type case = {
  source : string;  (** the PHP source under test *)
  gen_ast : Wap_php.Ast.program option;
      (** the generated AST when the source was printed from one; [None]
          for replayed seed files and spiced raw sources *)
}

val case_of_source : string -> case

type verdict = Pass | Fail of string

(** Shared scan context.  The tool is expensive to build (it trains the
    FP predictor), so it is created lazily and shared across the run. *)
type ctx = { tool : Wap_core.Tool.t Lazy.t }

type t = {
  name : string;  (** stable CLI/seed-file identifier, e.g. ["printer-fixpoint"] *)
  describe : string;
  check : ctx -> case -> verdict;
}

(** The seven oracles, in documentation order: [lexer-totality],
    [printer-fixpoint], [scan-determinism], [scan-fused-equiv],
    [scan-ir-equiv], [sanitizer-monotonicity], [fixer-soundness]. *)
val all : t list

val by_name : string -> t option
val names : string list

(** The per-spec reference of the [scan-fused-equiv] oracle: one
    independent [Wap_taint.Analyzer.analyze_project ~spec] run per
    spec over [units], merged in the engine's order
    ({!Wap_engine.Session.merge}) and de-duplicated like a scan
    ({!Wap_core.Tool.dedup_candidates}).  The fused analysis must
    reproduce it candidate for candidate. *)
val per_spec_reference :
  specs:Wap_catalog.Catalog.spec list ->
  Wap_taint.Analyzer.file_unit list ->
  Wap_taint.Trace.candidate list

(** The IR reference of the [scan-ir-equiv] oracle: passes 1–2
    through {!Wap_taint.Analyzer}, pass 3 through
    {!Wap_ir.Exec.analyze_file_toplevel}, then
    {!Wap_taint.Analyzer.finalize} — the same decomposition the
    benchmark's traced replay runs.  It must reproduce
    [Wap_taint.Analyzer.analyze_project_indexed ~specs units]
    candidate for candidate. *)
val ir_reference :
  specs:Wap_catalog.Catalog.spec list ->
  Wap_taint.Analyzer.file_unit list ->
  (int * Wap_taint.Trace.candidate) list

(** One [Wap_taint.Trace.show_candidate] rendering per line: the
    byte-level form the equivalence checks compare. *)
val render_candidates : Wap_taint.Trace.candidate list -> string
