(** The IR taint executor: pass 3 of the fused analysis, retargeted
    from tree walking to flat instruction sweeps.

    The lattice is unchanged — {!Wap_taint.Env}'s sparse per-spec
    origin vectors over a persistent variable map — and the transfer
    function is a per-opcode match over {!Ir.instr}.  Results are
    byte-identical to {!Wap_taint.Analyzer.analyze_file_toplevel}
    (enforced by the [scan-ir-equiv] oracle and the corpus tests).

    The engine itself runs the AST walker; this executor is kept as a
    differential reference for tests and the fuzz oracle, and for the
    benchmark's traced per-layer replay. *)

open Wap_taint

(** Execute one lowered scope against fresh state and return its
    candidates (spec-indexed, discovery order), de-duplicated within
    the scope only — exactly the AST path's per-file contract. *)
val run :
  specs:Wap_catalog.Catalog.spec array ->
  summaries:Summary.table ->
  file:string ->
  Ir.body ->
  (int * Trace.candidate) list

(** The IR counterpart of the AST walker's pass-3 step: splice
    includes, lower, execute.  Pure with respect to the state (fresh
    executor context, read-only summaries), so files may run
    concurrently. *)
val analyze_file_toplevel :
  Analyzer.project_state ->
  units:Analyzer.file_unit list ->
  Analyzer.file_unit ->
  (int * Trace.candidate) list
