(** AST → IR lowering (see {!Ir} for the invariants).

    The structure below is a transliteration of the AST walker's [eval]/
    [exec_stmt], emitting instructions at the exact points the walker
    would act.  All syntactic helpers (renderings, guard keys, format
    splitting, termination checks) come from {!Wap_taint.Analyzer}'s
    exported primitives — never private copies — so the two paths cannot
    drift apart silently. *)

open Wap_php
module A = Wap_taint.Analyzer
module Trace = Wap_taint.Trace
module VC = Wap_catalog.Vuln_class
module Cat = Wap_catalog.Catalog
module Lookup = Cat.Lookup
module Blocks = Wap_flow.Blocks

type st = {
  specs : Cat.spec array;
  lookup : Lookup.t;
  arena : Ir.instr Blocks.t;
  all_ids : int list;
  mutable ntemps : int;
}

let fresh st =
  let t = st.ntemps in
  st.ntemps <- t + 1;
  t

let push buf i = buf := i :: !buf

(* Sorted-id-set helpers with the same invariants as the analyzer's:
   inputs ascending and duplicate-free; [diff_ids a []] is [a] itself so
   the untouched-spec-set case stays physically equal to [all_ids]. *)
let union_ids a b =
  let rec go a b =
    match (a, b) with
    | [], l | l, [] -> l
    | x :: ta, y :: tb ->
        if x < y then x :: go ta b
        else if y < x then y :: go a tb
        else x :: go ta tb
  in
  go a b

let diff_ids a b = if b = [] then a else List.filter (fun x -> not (List.mem x b)) a

let idset st ids : Ir.idset = if ids == st.all_ids then Ir.All else Ir.Only ids

let arg1 e = { Ast.a_expr = e; a_spread = false }

(* ------------------------------------------------------------------ *)
(* Guard plans: [refine_true]/[refine_false] are purely syntactic over
   the condition, so their guard applications are precomputed here and
   replayed by the executor in the same order.                          *)

let rec plan_true (cond : Ast.expr) : Ir.plan =
  match cond.e with
  | Ast.Binop ((Ast.Bool_and | Ast.Bool_or), a, b) -> plan_true a @ plan_true b
  | Ast.Unop (Ast.Not, a) -> plan_false a
  | Ast.Call (Ast.F_ident f, args) when A.is_guard_fn f ->
      [ { Ir.g_name = A.normalize_fn f; g_keys = A.guarded_keys_of_args args } ]
  | Ast.Isset es ->
      [ { Ir.g_name = "isset";
          g_keys = A.guarded_keys_of_args (List.map arg1 es) } ]
  | Ast.Binop
      ( ( Ast.Eq_eq | Ast.Identical | Ast.Neq | Ast.Not_identical | Ast.Gt
        | Ast.Ge | Ast.Lt | Ast.Le ),
        _,
        _ ) ->
      List.map
        (fun (g, keys) -> { Ir.g_name = g; g_keys = keys })
        (A.guard_calls_in cond)
  | _ -> []

and plan_false (cond : Ast.expr) : Ir.plan =
  match cond.e with
  | Ast.Unop (Ast.Not, a) -> plan_true a
  | Ast.Binop (Ast.Bool_or, a, b) -> plan_false a @ plan_false b
  | Ast.Call (Ast.F_ident f, args)
    when List.mem (A.normalize_fn f) A.set_check_fns ->
      [ { Ir.g_name = A.normalize_fn f; g_keys = A.guarded_keys_of_args args } ]
  | Ast.Empty e1 ->
      [ { Ir.g_name = "empty"; g_keys = A.guarded_keys_of_args [ arg1 e1 ] } ]
  | Ast.Binop ((Ast.Eq_eq | Ast.Identical | Ast.Neq | Ast.Not_identical), _, _)
    ->
      List.map
        (fun (g, keys) -> { Ir.g_name = g; g_keys = keys })
        (A.guard_calls_in cond)
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Lvalues.                                                             *)

let rec lower_lvalue st (lhs : Ast.expr) : Ir.lvalue =
  match lhs.e with
  | Ast.Var v ->
      Ir.Lv_var { name = v; sg_ids = Lookup.superglobal_ids st.lookup v }
  | Ast.Index (base, _) -> Ir.Lv_index (Ast.base_variable base)
  | Ast.Prop (base, _) -> Ir.Lv_prop (Ast.base_variable base)
  | Ast.List es -> Ir.Lv_list (List.map (Option.map (lower_lvalue st)) es)
  | _ -> Ir.Lv_skip

(* Sink targets of a named function, already filtered to the allowed
   spec ids; [(spec id, dangerous positions)]. *)
let fn_sink_targets ?only st name =
  List.filter_map
    (fun (id, _cls, danger) ->
      match only with
      | Some ids when not (List.mem id ids) -> None
      | _ -> Some (id, danger))
    (Lookup.sink_fn_entries st.lookup name)

(* ------------------------------------------------------------------ *)
(* Expressions.  [lx] returns the temp holding the expression's taint;
   instructions are pushed in the walker's evaluation order.            *)

let rec lx st buf (e : Ast.expr) : Ir.temp =
  match e.e with
  | Ast.Int _ | Ast.Float _ | Ast.String _ | Ast.Constant _
  | Ast.Class_const _ | Ast.Static_prop _ ->
      const st buf
  | Ast.Interp parts ->
      let srcs = lower_parts st buf parts in
      (* interpolation into a literal is an implicit concatenation *)
      let mark = match parts with _ :: _ :: _ -> Some "concat_op" | _ -> None in
      let dst = fresh st in
      push buf (Ir.Join { dst; srcs; mark });
      dst
  | Ast.Backtick parts ->
      let srcs = lower_parts st buf parts in
      let t = fresh st in
      push buf (Ir.Join { dst = t; srcs; mark = None });
      push buf
        (Ir.Sink
           { name = "shell_exec"; loc = e.eloc; args = [ e ];
             taints = [ (0, t) ]; targets = fn_sink_targets st "shell_exec" });
      const st buf
  | Ast.Var v ->
      let dst = fresh st in
      push buf
        (Ir.Load_var
           { dst; name = v; sg_ids = Lookup.superglobal_ids st.lookup v;
             loc = e.eloc });
      dst
  | Ast.Var_var inner ->
      ignore (lx st buf inner);
      const st buf
  | Ast.Index ({ e = Ast.Var sg; _ }, idx)
    when Lookup.superglobal_ids st.lookup sg <> [] ->
      let sg_ids = Lookup.superglobal_ids st.lookup sg in
      (* the non-superglobal specs read the base before the index *)
      let rest = fresh st in
      push buf (Ir.Read_rest { dst = rest; name = sg; sg_ids });
      (match idx with Some i -> ignore (lx st buf i) | None -> ());
      let dst = fresh st in
      push buf
        (Ir.Sg_index
           { dst; rest; sg_ids; rendered = A.render_expr e; loc = e.eloc });
      dst
  | Ast.Index (base, idx) ->
      let b = lx st buf base in
      (match idx with Some i -> ignore (lx st buf i) | None -> ());
      let dst = fresh st in
      push buf (Ir.Array_get { dst; base = b });
      dst
  | Ast.Prop (base, _) ->
      let b = lx st buf base in
      let dst = fresh st in
      push buf (Ir.Field_get { dst; base = b });
      dst
  | Ast.Call (callee, args) -> lower_call st buf e.eloc callee args
  | Ast.New (cname, args) ->
      let taints = lower_args st buf args in
      let dst = fresh st in
      push buf
        (Ir.Join
           { dst; srcs = List.map snd taints;
             mark = Some ("new " ^ A.normalize_fn cname) });
      dst
  | Ast.Clone e1 ->
      let src = lx st buf e1 in
      let dst = fresh st in
      push buf (Ir.Copy { dst; src });
      dst
  | Ast.Binop (op, l, r) ->
      let tl = lx st buf l in
      let tr = lx st buf r in
      let dst = fresh st in
      push buf (Ir.Binop { dst; l = tl; r = tr; concat = op = Ast.Concat });
      dst
  | Ast.Unop (_, e1) | Ast.Incdec (_, e1) -> lx st buf e1
  | Ast.Assign (op, lhs, rhs) -> lower_assign st buf e.eloc op lhs rhs
  | Ast.Assign_ref (lhs, rhs) -> lower_assign st buf e.eloc Ast.A_eq lhs rhs
  | Ast.Ternary (c, t_br, f_br) ->
      ignore (lx st buf c);
      let plan_t = plan_true c in
      let plan_f = plan_false c in
      (* `c ?: f` re-evaluates c's value in the true arm *)
      let t_blk, t_res =
        lower_expr_block st (match t_br with Some t -> t | None -> c)
      in
      let f_blk, f_res = lower_expr_block st f_br in
      let dst = fresh st in
      push buf (Ir.Ternary { dst; plan_t; plan_f; t_blk; t_res; f_blk; f_res });
      dst
  | Ast.Cast (c, e1) ->
      let src = lx st buf e1 in
      let dst = fresh st in
      push buf (Ir.Through { dst; src; name = A.cast_name c });
      dst
  | Ast.Isset es ->
      List.iter (fun e1 -> ignore (lx st buf e1)) es;
      const st buf
  | Ast.Empty e1 ->
      ignore (lx st buf e1);
      const st buf
  | Ast.Exit arg ->
      (match arg with
      | Some a ->
          let t = lx st buf a in
          push buf
            (Ir.Sink
               { name = "exit"; loc = e.eloc; args = [ a ]; taints = [ (0, t) ];
                 targets = fn_sink_targets st "exit" })
      | None -> ());
      const st buf
  | Ast.Print e1 ->
      let t = lx st buf e1 in
      push buf
        (Ir.Sink
           { name = "print"; loc = e.eloc; args = [ e1 ]; taints = [ (0, t) ];
             targets = List.map (fun id -> (id, [])) (Lookup.echo_ids st.lookup)
           });
      const st buf
  | Ast.Include (_, e1) ->
      let t = lx st buf e1 in
      push buf
        (Ir.Sink
           { name = "include"; loc = e.eloc; args = [ e1 ];
             taints = [ (0, t) ];
             targets =
               List.map (fun id -> (id, [])) (Lookup.include_ids st.lookup) });
      const st buf
  | Ast.List _ -> const st buf
  | Ast.Array_lit items ->
      let srcs =
        List.rev
          (List.fold_left
             (fun acc (it : Ast.array_item) ->
               (match it.ai_key with
               | Some k -> ignore (lx st buf k)
               | None -> ());
               lx st buf it.ai_value :: acc)
             [] items)
      in
      let dst = fresh st in
      push buf (Ir.Join { dst; srcs; mark = None });
      dst
  | Ast.Closure c ->
      let body = lower_stmts_block st c.cl_body in
      push buf (Ir.Closure { uses = List.map snd c.cl_uses; body });
      const st buf

and const st buf =
  let dst = fresh st in
  push buf (Ir.Const { dst });
  dst

(* interpolated parts: only the expressions produce temps *)
and lower_parts st buf parts =
  List.rev
    (List.fold_left
       (fun acc part ->
         match part with
         | Ast.Ip_str _ -> acc
         | Ast.Ip_expr pe -> lx st buf pe :: acc)
       [] parts)

and lower_expr_block st e =
  let buf = ref [] in
  let res = lx st buf e in
  (finish st buf, res)

and lower_args st buf (args : Ast.arg list) : (int * Ir.temp) list =
  List.rev
    (snd
       (List.fold_left
          (fun (i, acc) (a : Ast.arg) ->
            (i + 1, (i, lx st buf a.Ast.a_expr) :: acc))
          (0, []) args))

and lower_call st buf loc (callee : Ast.callee) (args : Ast.arg list) : Ir.temp
    =
  let taints = lower_args st buf args in
  let arg_exprs = List.map (fun (a : Ast.arg) -> a.Ast.a_expr) args in
  let mk target =
    let dst = fresh st in
    push buf (Ir.Call { dst; loc; args = taints; arg_exprs; target });
    dst
  in
  match callee with
  | Ast.F_method ({ e = Ast.Var obj; _ }, Ast.Mem_ident m)
    when Lookup.sanitizer_method_ids st.lookup obj m <> []
         || Lookup.sanitizer_method_ids st.lookup "*" m <> []
         || Lookup.sink_method_ids st.lookup obj m <> []
         || Lookup.sink_method_ids st.lookup "*" m <> [] ->
      let san =
        union_ids
          (Lookup.sanitizer_method_ids st.lookup obj m)
          (Lookup.sanitizer_method_ids st.lookup "*" m)
      in
      let snk =
        diff_ids
          (union_ids
             (Lookup.sink_method_ids st.lookup obj m)
             (Lookup.sink_method_ids st.lookup "*" m))
          san
      in
      let rest = diff_ids st.all_ids (union_ids san snk) in
      if snk <> [] then
        push buf
          (Ir.Sink
             { name = A.normalize_fn obj ^ "->" ^ A.normalize_fn m; loc;
               args = arg_exprs; taints;
               targets = List.map (fun id -> (id, [])) snk });
      mk
        (Ir.Ct_named
           { fname = m; through = A.normalize_fn m; ids = idset st rest })
  | Ast.F_method (_, Ast.Mem_ident m) ->
      mk (Ir.Ct_named { fname = m; through = A.normalize_fn m; ids = Ir.All })
  | Ast.F_method (_, Ast.Mem_expr _) | Ast.F_var _ -> mk Ir.Ct_dynamic
  | Ast.F_static (c, m) ->
      mk
        (Ir.Ct_named
           { fname = m;
             through = A.normalize_fn c ^ "::" ^ A.normalize_fn m;
             ids = Ir.All })
  | Ast.F_ident f ->
      let lf = A.normalize_fn f in
      let san = Lookup.sanitizer_fn_ids st.lookup lf in
      let src = diff_ids (Lookup.source_fn_ids st.lookup lf) san in
      let rest = diff_ids st.all_ids (union_ids san src) in
      if rest = [] then
        (* sanitizer/source for every spec: no sink check, no summary *)
        mk
          (Ir.Ct_fn
             { lf; src; rest = Ir.Only [];
               special = Ir.Fs_plain { clean_if_unknown = false } })
      else if lf = "sprintf" || lf = "vsprintf" then
        let parts =
          match arg_exprs with
          | { Ast.e = Ast.String fmt; _ } :: _ -> A.split_format fmt
          | _ -> [ Trace.Qdyn ]
        in
        mk (Ir.Ct_fn { lf; src; rest = idset st rest; special = Ir.Fs_sprintf parts })
      else begin
        let only =
          if lf = "preg_replace" then begin
            (* only the /e modifier makes preg_replace a PHP-code sink *)
            let dangerous =
              match arg_exprs with
              | { Ast.e = Ast.String pat; _ } :: _ ->
                  String.length pat > 0 && pat.[String.length pat - 1] = 'e'
              | _ -> true
            in
            if dangerous then rest
            else
              List.filter (fun id -> st.specs.(id).Cat.vclass <> VC.Phpci) rest
          end
          else rest
        in
        (match fn_sink_targets ~only st lf with
        | [] -> ()
        | targets ->
            push buf (Ir.Sink { name = lf; loc; args = arg_exprs; taints; targets }));
        let clean_if_unknown = A.is_guard_fn lf || List.mem lf A.return_clean_fns in
        mk
          (Ir.Ct_fn
             { lf; src; rest = idset st rest;
               special = Ir.Fs_plain { clean_if_unknown } })
      end

and lower_assign st buf loc op (lhs : Ast.expr) (rhs : Ast.expr) : Ir.temp =
  let t_rhs = lx st buf rhs in
  (* compound assignment reads the lhs after the rhs *)
  let prev = match op with Ast.A_eq -> None | _ -> Some (lx st buf lhs) in
  let dst = fresh st in
  push buf
    (Ir.Assign_val
       { dst; rhs = t_rhs; prev; op; lhs_e = lhs; rhs_e = rhs; loc });
  (match lower_lvalue st lhs with
  | Ir.Lv_var { name; sg_ids } -> push buf (Ir.Store_var { src = dst; name; sg_ids })
  | Ir.Lv_index base -> push buf (Ir.Array_set { src = dst; base })
  | Ir.Lv_prop base -> push buf (Ir.Field_set { src = dst; base })
  | Ir.Lv_skip -> ()
  | Ir.Lv_list _ as lv -> push buf (Ir.Store { src = dst; lv }));
  dst

(* ------------------------------------------------------------------ *)
(* Statements.                                                          *)

and lower_stmt st buf (s : Ast.stmt) : unit =
  match s.s with
  | Ast.Expr_stmt e -> ignore (lx st buf e)
  | Ast.Echo es ->
      let targets =
        List.map (fun id -> (id, [])) (Lookup.echo_ids st.lookup)
      in
      List.iter
        (fun e ->
          let t = lx st buf e in
          if targets <> [] then
            push buf
              (Ir.Sink
                 { name = "echo"; loc = s.sloc; args = [ e ];
                   taints = [ (0, t) ]; targets }))
        es
  | Ast.If (branches, els) ->
      (* conditions evaluate for side effects before any branch runs *)
      List.iter (fun (c, _) -> ignore (lx st buf c)) branches;
      let arms =
        List.map
          (fun (cond, body) ->
            { Ir.ar_plan_true = plan_true cond;
              ar_plan_false = plan_false cond;
              ar_body = lower_stmts_block st body;
              ar_terminates = A.terminates body;
              ar_exit_guards =
                (if A.terminates_with_exit body then
                   Some (List.map snd (A.guard_calls_in cond))
                 else None) })
          branches
      in
      let else_ =
        Option.map (fun body -> (lower_stmts_block st body, A.terminates body)) els
      in
      push buf (Ir.If_s { arms; else_ })
  | Ast.While (cond, body) ->
      ignore (lx st buf cond);
      push buf (Ir.Loop { enter = plan_true cond; body = lower_stmts_block st body })
  | Ast.Do_while (body, cond) ->
      let b = lower_stmts_block st body in
      push buf (Ir.Run { blk = b });
      ignore (lx st buf cond);
      push buf (Ir.Loop { enter = plan_true cond; body = b })
  | Ast.For (init, conds, steps, body) ->
      List.iter (fun e -> ignore (lx st buf e)) init;
      List.iter (fun e -> ignore (lx st buf e)) conds;
      push buf (Ir.Loop { enter = []; body = lower_stmts_block st body });
      List.iter (fun e -> ignore (lx st buf e)) steps
  | Ast.Foreach (subject, binding, body) ->
      let t = lx st buf subject in
      push buf
        (Ir.Foreach_bind
           { subject = t; subject_e = subject; loc = s.sloc;
             value_lv = lower_lvalue st binding.Ast.fe_value;
             key_lv = Option.map (lower_lvalue st) binding.Ast.fe_key });
      push buf (Ir.Loop { enter = []; body = lower_stmts_block st body })
  | Ast.Switch (subject, cases) ->
      ignore (lx st buf subject);
      let case_blocks =
        List.map
          (fun case ->
            lower_block st (fun buf ->
                match case with
                | Ast.Case (e, body) ->
                    ignore (lx st buf e);
                    List.iter (lower_stmt st buf) body
                | Ast.Default body -> List.iter (lower_stmt st buf) body))
          cases
      in
      push buf (Ir.Switch_s { cases = case_blocks })
  | Ast.Return (Some e) ->
      let t = lx st buf e in
      push buf (Ir.Return_t { src = t })
  | Ast.Return None -> ()
  | Ast.Break _ | Ast.Continue _ | Ast.Inline_html _ | Ast.Nop
  | Ast.Const_def _ ->
      ()
  | Ast.Global vs -> push buf (Ir.Set_clean { names = vs })
  | Ast.Static_vars vs ->
      List.iter
        (fun (v, init) ->
          match init with
          | Some e ->
              let t = lx st buf e in
              push buf (Ir.Store_raw { name = v; src = t })
          | None -> push buf (Ir.Set_clean { names = [ v ] }))
        vs
  | Ast.Unset es ->
      let names =
        List.filter_map
          (fun e -> match e.Ast.e with Ast.Var v -> Some v | _ -> None)
          es
      in
      if names <> [] then push buf (Ir.Unset_vars { names })
  | Ast.Throw e -> ignore (lx st buf e)
  | Ast.Try (body, catches, fin) ->
      let b = lower_stmts_block st body in
      let cs =
        List.map
          (fun (c : Ast.catch) ->
            lower_block st (fun buf ->
                (match c.Ast.c_var with
                | Some v -> push buf (Ir.Set_clean { names = [ v ] })
                | None -> ());
                List.iter (lower_stmt st buf) c.Ast.c_body))
          catches
      in
      push buf
        (Ir.Try_s
           { body = b; catches = cs; fin = Option.map (lower_stmts_block st) fin })
  | Ast.Func_def _ | Ast.Class_def _ ->
      (* bodies are separate scopes, analyzed by passes 1–2 *)
      ()
  | Ast.Block body -> List.iter (lower_stmt st buf) body

and lower_block st f =
  let buf = ref [] in
  f buf;
  finish st buf

and lower_stmts_block st stmts =
  lower_block st (fun buf -> List.iter (lower_stmt st buf) stmts)

and finish st buf = Blocks.add st.arena (Array.of_list (List.rev !buf))

(* ------------------------------------------------------------------ *)
(* Entry point.                                                         *)

let program ~specs ~lookup (prog : Ast.program) : Ir.body =
  let st =
    { specs; lookup; arena = Blocks.create ();
      all_ids = List.init (Lookup.nspecs lookup) Fun.id; ntemps = 0 }
  in
  let entry = lower_stmts_block st prog in
  { Ir.blocks = Blocks.freeze st.arena; entry; ntemps = st.ntemps }
