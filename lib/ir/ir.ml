(** The three-address taint IR.

    A lowered file is a set of instruction blocks over explicit
    temporaries.  Every intermediate value of the PHP program — each
    literal, variable read, operator result, call result — gets a dense
    temporary id; instructions read temporaries and write exactly one
    (or store into the variable environment).  Catalog facts are
    resolved at lowering time: a superglobal read carries the spec ids
    it is an entry point for, a call carries its source/sanitizer/sink
    annotations, a guard refinement carries the precomputed
    [(guard name, guarded keys)] plan.  Executing a block is then a flat
    array sweep with a per-opcode transfer function ({!Exec}) — no tree
    matching, no re-rendering, no catalog lookups.

    {b Lowering invariants} (load-bearing for the byte-identity contract
    with the AST walker, enforced by the [scan-ir-equiv] oracle):

    - Instructions appear in the AST walker's evaluation order; an
      expression's side effects (emissions, environment writes) happen
      at the same point of the sweep as in the walker.
    - Control flow stays {e structured}: a loop is one {!constructor:Loop}
      instruction referencing its body block, an [if]/[elseif] chain one
      {!constructor:If_s} — the executor replays the walker's structural
      merges and its 3-iteration per-spec loop fixpoint exactly, rather
      than a generic CFG fixpoint that would compute a different (if
      sound) result.
    - Every instruction that can emit a candidate or mint an origin
      carries the source location of the AST node it was lowered from,
      so diagnostics, fixes and traces are byte-identical.
    - Strings that only matter on tainted flows (assignment step
      descriptions, [qpart] structure) are lowered lazily and forced at
      most once, where the walker re-renders them per loop iteration. *)

open Wap_php

(** Temporary id, dense within one {!body}.  Temporaries not written by
    any instruction (unreached blocks) read as clean. *)
type temp = int

(** One guard application of a refinement plan: the precomputed effect
    of [refine_true]/[refine_false] on one condition. *)
type guard = { g_name : string; g_keys : string list }

(** Ordered guard applications for entering a branch. *)
type plan = guard list

(** Assignment targets, mirroring the walker's [assign_to] shapes. *)
type lvalue =
  | Lv_var of { name : string; sg_ids : int list }
      (** plain variable; [sg_ids] are the specs for which it is a
          superglobal (those never store) *)
  | Lv_index of string option  (** [$base[...]]: coarse container join *)
  | Lv_prop of string option  (** [$base->p]: coarse container join *)
  | Lv_list of lvalue option list  (** [list(...)] destructuring *)
  | Lv_skip  (** unsupported target: environment unchanged *)

(** A set of spec ids; [All] avoids materializing the full-id case (the
    executor skips the restrict). *)
type idset = All | Only of int list

(** Builtin-specific call behavior, resolved at lowering time. *)
type fn_special =
  | Fs_sprintf of Wap_taint.Trace.qpart list
      (** sprintf/vsprintf: argument taint flows to the result carrying
          the format structure; never a sink, never a summary *)
  | Fs_plain of { clean_if_unknown : bool }
      (** ordinary function; [clean_if_unknown] marks guards and
          return-clean builtins (result clean when no summary exists) *)

type call_target =
  | Ct_dynamic  (** [$f(...)], [$o->$m(...)]: operand join, all specs *)
  | Ct_named of { fname : string; through : string; ids : idset }
      (** method/static call: summary under [fname] or operand join,
          restricted to [ids] (sanitizer/sink specs already peeled) *)
  | Ct_fn of { lf : string; src : int list; rest : idset; special : fn_special }
      (** plain function [lf] (normalized): source taint for [src],
          summary-or-join for [rest]; sink emission is a separate
          {!constructor:Sink} instruction lowered before the call *)

type instr =
  | Const of { dst : temp }  (** literal or other always-clean value *)
  | Copy of { dst : temp; src : temp }
  | Load_var of { dst : temp; name : string; sg_ids : int list; loc : Loc.t }
      (** variable read; for [sg_ids] specs it is a taint source *)
  | Read_rest of { dst : temp; name : string; sg_ids : int list }
      (** the non-superglobal specs' view of [$name], read {e before}
          the index expression of a superglobal access evaluates *)
  | Sg_index of {
      dst : temp;
      rest : temp;
      sg_ids : int list;
      rendered : string;
      loc : Loc.t;
    }
      (** superglobal element read [$_GET['x']]: fresh origin for
          [sg_ids] (picking up ["@sg:"] guards recorded {e after} the
          index evaluated), overlaid on [rest] *)
  | Array_get of { dst : temp; base : temp }  (** element read: base taint *)
  | Field_get of { dst : temp; base : temp }  (** property read: base taint *)
  | Binop of { dst : temp; l : temp; r : temp; concat : bool }
      (** operand join; [concat] adds the ["concat_op"] through mark *)
  | Join of { dst : temp; srcs : temp list; mark : string option }
      (** n-ary operand join (interpolation, array literal, [new]);
          [mark] is an optional through mark applied to the result *)
  | Through of { dst : temp; src : temp; name : string }  (** cast mark *)
  | Assign_val of {
      dst : temp;
      rhs : temp;
      prev : temp option;  (** the lhs value for compound assignments *)
      op : Ast.assign_op;
          (** rendered into the step; [.=] also adds the concat mark
              and appends qparts *)
      lhs_e : Ast.expr;  (** rendered into the step only on taint *)
      rhs_e : Ast.expr;
      loc : Loc.t;
    }  (** the assigned value: join, step, qpart bookkeeping *)
  | Store_var of { src : temp; name : string; sg_ids : int list }
  | Array_set of { src : temp; base : string option }
  | Field_set of { src : temp; base : string option }
  | Store of { src : temp; lv : lvalue }  (** compound target ([list]) *)
  | Sink of {
      name : string;
      loc : Loc.t;
      args : Ast.expr list;
      taints : (int * temp) list;  (** argument position -> temp *)
      targets : (int * int list) list;
          (** (spec id, dangerous positions; [] = all) *)
    }
      (** sink check: one candidate per target spec whose component
          survives in a relevant argument.  Covers echo/print/include/
          exit/backticks and catalog function/method sinks. *)
  | Call of {
      dst : temp;
      loc : Loc.t;
      args : (int * temp) list;
      arg_exprs : Ast.expr list;  (** for interprocedural sink evidence *)
      target : call_target;
    }
  | Closure of { uses : string list; body : int }
      (** closure literal: body analyzed in a scope seeded from [uses] *)
  | Ternary of {
      dst : temp;
      plan_t : plan;
      plan_f : plan;
      t_blk : int;
      t_res : temp;
      f_blk : int;
      f_res : temp;
    }  (** value join of both arms, control merge of their envs *)
  | Run of { blk : int }  (** straight-line sub-block (do-while first pass) *)
  | Loop of { enter : plan; body : int }
      (** the 3-iteration per-spec loop fixpoint over [body] *)
  | If_s of { arms : arm list; else_ : (int * bool) option }
      (** if/elseif/else; conditions were evaluated inline just before;
          [else_] carries (block, terminates) *)
  | Switch_s of { cases : int list }
      (** each case block (label eval + body) runs from the pre-switch
          env; merge folds from the pre-switch env *)
  | Try_s of { body : int; catches : int list; fin : int option }
  | Foreach_bind of {
      subject : temp;
      subject_e : Ast.expr;  (** rendered into the step only on taint *)
      loc : Loc.t;
      value_lv : lvalue;
      key_lv : lvalue option;
    }  (** bind loop variables to the subject's taint + step *)
  | Return_t of { src : temp }  (** record return taint (live specs only) *)
  | Set_clean of { names : string list }
  | Store_raw of { name : string; src : temp }  (** static-var init *)
  | Unset_vars of { names : string list }

and arm = {
  ar_plan_true : plan;
  ar_plan_false : plan;
  ar_body : int;
  ar_terminates : bool;  (** body ends in return/throw/break/... *)
  ar_exit_guards : string list list option;
      (** [Some keys] when the body ends in exit/die: the condition's
          guarded keys get the ["exit"] symptom on the fallthrough *)
}

(** One lowered scope (a file's top level, a closure body): blocks
    indexed by id, [entry] first. *)
type body = {
  blocks : instr array array;
  entry : int;
  ntemps : int;
}
