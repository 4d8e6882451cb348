(** Candidate vulnerabilities: tainted data-flow paths from an entry
    point to a sensitive sink.

    A candidate is what the code analyzer hands to the false-positive
    predictor.  Besides the path itself it carries the raw evidence the
    symptom collector needs: every function the tainted data passed
    through and every validation guard observed dominating the flow. *)

open Wap_php

type step = {
  step_loc : Loc.t;
  step_desc : string;  (** rendered source of the propagating statement *)
}
[@@deriving show, eq]

(** Literal/dynamic structure of a string the tainted data was spliced
    into, e.g. ["SELECT * FROM t WHERE id = "; <dyn>] — the SQL-symptom
    collector needs it to see FROM clauses and numeric contexts even when
    the query is built in a variable before reaching the sink. *)
type qpart = Qlit of string | Qdyn [@@deriving show, eq]

(** Where the tainted data originally came from. *)
type origin = {
  source : string;  (** e.g. ["$_GET['user']"] or ["mysql_fetch_assoc"] *)
  source_loc : Loc.t;
  steps : step list;
      (** propagation chain, {e newest first} so {!add_step} is O(1);
          read it in source order with {!steps_in_order} *)
  through : string list;
      (** names of functions applied to the data on its way (lowercase);
          casts appear as ["(int)"] etc. *)
  guards : string list;
      (** validation predicates observed guarding the flow, e.g.
          ["is_numeric"], ["isset"], ["preg_match"] *)
  parts : qpart list;
      (** structure of the latest string built from the data (see
          {!qpart}), {e newest first} so a [.=] extends it in O(|rhs|);
          read it in source order with {!parts_in_order} *)
}
[@@deriving show, eq]

let origin ~source ~source_loc =
  { source; source_loc; steps = []; through = []; guards = []; parts = [] }

(* [steps] and [parts] are stored reversed: a flow of n statements (or
   n [.=] appends) then costs O(n) in total instead of O(n^2), and the
   tails stay shared between the origins of one flow. *)
let with_parts o parts = { o with parts = List.rev parts }
let extend_parts o parts = { o with parts = List.rev_append parts o.parts }
let add_step o step = { o with steps = step :: o.steps }
let steps_in_order o = List.rev o.steps
let parts_in_order o = List.rev o.parts
let add_through o fname = { o with through = fname :: o.through }
let add_guard o g = if List.mem g o.guards then o else { o with guards = g :: o.guards }

(* ------------------------------------------------------------------ *)
(* Evidence-list merges.                                               *)

(* [through]/[guards] are small most of the time, but deep concatenation
   chains fold thousands of operands into one origin; the naive
   prepend-if-absent accumulation is then quadratic.  Both merges below
   keep the exact output (order included) of the naive versions and
   switch to a set-backed membership test once the lists are big enough
   for it to pay. *)

module SS = Set.Make (String)

let small_merge = 8

(** [union_names base extra]: fold [extra] onto [base], prepending each
    element not already present — the accumulation historically done with
    [if List.mem x l then l else x :: l]. *)
let union_names base extra =
  match extra with
  | [] -> base
  | _ ->
      if List.length base + List.length extra <= small_merge then
        List.fold_left
          (fun l x -> if List.mem x l then l else x :: l)
          base extra
      else
        let seen = ref (SS.of_list base) in
        List.fold_left
          (fun l x ->
            if SS.mem x !seen then l
            else begin
              seen := SS.add x !seen;
              x :: l
            end)
          base extra

(** [inter_names a b]: elements of [a] also present in [b], in [a]'s
    order — guard intersection at control-flow merges. *)
let inter_names a b =
  match (a, b) with
  | [], _ | _, [] -> []
  | _ ->
      if List.length a + List.length b <= small_merge then
        List.filter (fun g -> List.mem g b) a
      else
        let in_b = SS.of_list b in
        List.filter (fun g -> SS.mem g in_b) a

(** Is the origin a function-summary placeholder for parameter [i]? *)
let param_source i = Printf.sprintf "param:%d" i

let param_index_of_source s =
  if String.length s > 6 && String.sub s 0 6 = "param:" then
    int_of_string_opt (String.sub s 6 (String.length s - 6))
  else None

type candidate = {
  vclass : Wap_catalog.Vuln_class.t;
  file : string;
  sink_name : string;  (** function/construct at the sink, e.g. ["mysql_query"], ["echo"] *)
  sink_loc : Loc.t;
  origins : origin list;  (** one per tainted argument flow *)
  sink_args : Ast.expr list;  (** the sink's argument expressions *)
  tainted_positions : int list;  (** indices of the tainted arguments *)
}
[@@deriving show]

(** Primary origin used for reporting (the first tainted flow). *)
let primary c = match c.origins with o :: _ -> o | [] -> origin ~source:"?" ~source_loc:Loc.dummy

(** One-line rendering: class, sink and source. *)
let summary c =
  let o = primary c in
  Printf.sprintf "%s: %s -> %s at %s"
    (Wap_catalog.Vuln_class.acronym c.vclass)
    o.source c.sink_name
    (Loc.to_string c.sink_loc)

(** Stable identity used to de-duplicate candidates found by several
    detectors for the same flow (e.g. RFI and LFI share the include
    sink, and the paper reports them together as "Files").  The source
    and the propagation path are part of the key so distinct flows into
    one shared sink — e.g. two call sites of a query helper — stay
    distinct. *)
let dedup_key c =
  let o = primary c in
  let path_sig =
    match o.steps with
    | last :: _ -> Printf.sprintf "%s:%d" last.step_loc.Loc.file last.step_loc.Loc.line
    | [] -> ""
  in
  Printf.sprintf "%s|%d:%d|%s|%s|%s" c.file c.sink_loc.Loc.line
    c.sink_loc.Loc.col
    (Wap_catalog.Vuln_class.report_group c.vclass)
    o.source path_sig
