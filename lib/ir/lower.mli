(** AST → IR lowering.

    Resolves every catalog fact (superglobals, sources, sanitizers,
    sinks, guard plans, printf formats) once, at lowering time, and
    freezes the walker's evaluation order into flat instruction blocks.
    See {!Ir} for the invariants the output upholds. *)

open Wap_php

(** Lower one program (a file's top level, includes already spliced).
    [specs]/[lookup] must be the ones the candidates will be emitted
    under — annotations embed spec ids. *)
val program :
  specs:Wap_catalog.Catalog.spec array ->
  lookup:Wap_catalog.Catalog.Lookup.t ->
  Ast.program ->
  Ir.body
