(** The taint analyzer: one fused flow-sensitive pass detecting
    candidate vulnerabilities for {e all} active detector specs at once.

    The analysis is flow-sensitive inside each scope and interprocedural
    through {!Summary} tables.  Sanitization functions of a spec kill
    that spec's taint component only; validation functions do {e not}
    kill anything — they add guard evidence to the flow, exactly like
    the original WAP, whose false-positive predictor is in charge of
    deciding whether the observed validations make the candidate a false
    alarm.

    Taint values are per-spec vectors ({!Env.taint}): entry points mark
    the components of the specs they feed, each spec's sanitizers clear
    only that spec's component, and a sink emits one candidate per spec
    whose component survives.  Components never interact across specs,
    so the fused run computes — component by component, in one AST
    walk — exactly what one single-spec run per spec would, while doing
    the spec-independent work (rendering, traversal, environment
    bookkeeping, include splicing) once instead of N times. *)

open Wap_php
module VC = Wap_catalog.Vuln_class
module Cat = Wap_catalog.Catalog
module Lookup = Wap_catalog.Catalog.Lookup

(* ------------------------------------------------------------------ *)
(* Call-name normalization.                                            *)

(* PHP function and method names are case-insensitive; every name that
   enters a catalog lookup or a summary table goes through here. *)
let normalize_fn = String.lowercase_ascii

(* ------------------------------------------------------------------ *)
(* Validation guards (Table I, validation category).                   *)

let set_check_fns = [ "isset"; "empty"; "is_null" ]

(* Functions whose return value is never attacker-controlled text even
   when their arguments are tainted: query handles, counters, error
   strings.  Without this barrier a tainted SQL string would taint the
   result resource and, through a fetch, every page that renders query
   results. *)
let return_clean_fns =
  [ "mysql_query"; "mysql_unbuffered_query"; "mysql_db_query"; "mysqli_query";
    "mysqli_multi_query"; "mysqli_real_query"; "pg_query"; "pg_send_query";
    "sqlite_query"; "sqlite_exec"; "mysql_num_rows"; "mysqli_num_rows";
    "mysql_insert_id"; "mysql_affected_rows"; "mysql_error"; "mysqli_error";
    "count"; "sizeof"; "strlen"; "array_key_exists" ]

let guard_fns =
  set_check_fns
  @ [ "is_string"; "is_int"; "is_integer"; "is_long"; "is_float"; "is_double";
      "is_real"; "is_numeric"; "is_scalar"; "is_bool";
      "ctype_digit"; "ctype_alpha"; "ctype_alnum";
      "preg_match"; "preg_match_all"; "ereg"; "eregi";
      "strnatcmp"; "strcmp"; "strncmp"; "strncasecmp"; "strcasecmp";
      "in_array"; "array_key_exists"; "checkdate"; "filter_var" ]

let is_guard_fn name = List.mem (normalize_fn name) guard_fns

(* ------------------------------------------------------------------ *)
(* Small sorted-id-list helpers (spec sets are tiny).                  *)

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

(* [b = []] returns [a] itself: downstream fast paths test physical
   equality against [ctx.all_ids]. *)
let diff_ids a b = if b = [] then a else List.filter (fun x -> not (List.mem x b)) a

(* ------------------------------------------------------------------ *)
(* Analysis context.                                                   *)

type phase =
  | Summaries_only  (** first pass: only collect summaries *)
  | Full  (** second pass: emit real candidates too *)

type ctx = {
  specs : Cat.spec array;
  all_ids : int list;  (** [0 .. nspecs-1] *)
  lookup : Lookup.t;
  summaries : Summary.table;
  phase : phase;
  mutable file : string;
  mutable candidates : (int * Trace.candidate) list;
      (** spec-indexed, newest first *)
  seen : (string, unit) Hashtbl.t;  (** candidate de-duplication *)
  (* function-analysis state *)
  mutable return_taints : Env.taint list;
  mutable param_sinks : (int * Summary.param_sink) list;
  mutable current_fn : string option;
  mutable live : int list;
      (** specs still iterating in the innermost loop fixpoint; a spec
          that already stabilized must not record anything more, or the
          fused result would drift from its single-spec run *)
}

let make_ctx ~specs ~lookup ~phase ~summaries =
  let all_ids = List.init (Array.length specs) Fun.id in
  {
    specs;
    all_ids;
    lookup;
    summaries;
    phase;
    file = "<none>";
    candidates = [];
    seen = Hashtbl.create 64;
    return_taints = [];
    param_sinks = [];
    current_fn = None;
    live = all_ids;
  }

let is_live ctx id = ctx.live == ctx.all_ids || List.mem id ctx.live

let render_expr e =
  let s = Printer.expr_to_string e in
  if String.length s > 120 then String.sub s 0 117 ^ "..." else s

(* ------------------------------------------------------------------ *)
(* Candidate emission.                                                 *)

(* The de-duplication key of one (spec, sink, sources) emission.  The
   spec id (not the class acronym) keys the spec so two specs sharing a
   class de-duplicate independently, like their single-spec runs
   would. *)
let candidate_key ~id ~file ~sink_name ~(loc : Loc.t) ~sources =
  Printf.sprintf "%s|%s|%d:%d|#%d|%s" file sink_name loc.Loc.line loc.Loc.col
    id
    (String.concat "," sources)

let indexed_key (id, (c : Trace.candidate)) =
  candidate_key ~id ~file:c.Trace.file ~sink_name:c.Trace.sink_name
    ~loc:c.Trace.sink_loc
    ~sources:(List.map (fun (o : Trace.origin) -> o.Trace.source) c.Trace.origins)

(* Emit for one spec; [tainted] : (argument position * origin) list,
   every origin being that spec's component. *)
let emit_one ctx ~id ~sink_name ~loc ~args ~tainted =
  match tainted with
  | [] -> ()
  | _ when not (is_live ctx id) -> ()
  | _ ->
      let real, params =
        List.partition
          (fun (_, (o : Trace.origin)) ->
            Trace.param_index_of_source o.Trace.source = None)
          tainted
      in
      (* taint coming from an enclosing function's parameter: record it in
         the summary being built *)
      List.iter
        (fun (_, (o : Trace.origin)) ->
          match Trace.param_index_of_source o.Trace.source with
          | Some i ->
              ctx.param_sinks <-
                ( id,
                  { Summary.ps_index = i; ps_sink_name = sink_name;
                    ps_sink_loc = loc; ps_through = o.Trace.through } )
                :: ctx.param_sinks
          | None -> ())
        params;
      if real <> [] && ctx.phase = Full then begin
        (* the sink's own file, not the analyzed unit: included files keep
           their identity when spliced into an includer *)
        let file = if loc.Loc.file = "<none>" then ctx.file else loc.Loc.file in
        let key =
          candidate_key ~id ~file ~sink_name ~loc
            ~sources:(List.map (fun (_, o) -> o.Trace.source) real)
        in
        if not (Hashtbl.mem ctx.seen key) then begin
          Hashtbl.add ctx.seen key ();
          ctx.candidates <-
            ( id,
              {
                Trace.vclass = ctx.specs.(id).Cat.vclass;
                file;
                sink_name;
                sink_loc = loc;
                origins = List.map snd real;
                sink_args = args;
                tainted_positions = List.map fst real;
              } )
            :: ctx.candidates
        end
      end

(* Emit for one spec from vector taints: extract that spec's component
   of every argument. *)
let emit_spec ctx ~id ~sink_name ~loc ~args ~taints =
  let tainted =
    List.filter_map
      (fun (i, t) -> Option.map (fun o -> (i, o)) (Env.find t id))
      taints
  in
  emit_one ctx ~id ~sink_name ~loc ~args ~tainted

(* ------------------------------------------------------------------ *)
(* Guard refinement.                                                   *)

(* Variables (and rendered superglobal accesses) validated by a guard
   call's arguments. *)
let guarded_keys_of_args (args : Ast.arg list) : string list =
  List.concat_map
    (fun (a : Ast.arg) ->
      let acc = ref [] in
      Visitor.fold_expr
        (fun () (e : Ast.expr) ->
          match e.e with
          | Ast.Var v when not (Ast.is_superglobal v) -> acc := v :: !acc
          | Ast.Index ({ e = Ast.Var sg; _ }, _) when Ast.is_superglobal sg ->
              acc := ("@sg:" ^ render_expr e) :: !acc
          | _ -> ())
        () a.a_expr;
      !acc)
    args

let add_guard_to ctx env keys gname =
  List.fold_left
    (fun env k ->
      if String.length k > 4 && String.sub k 0 4 = "@sg:" then
        (* superglobal guard: remember it under a pseudo-variable, for
           every spec (superglobal membership does not matter here — the
           pseudo-var is only read back by the specs it is one for) *)
        let prev = Env.get env k in
        let v =
          List.map
            (fun id ->
              ( id,
                match Env.find prev id with
                | Some o -> Trace.add_guard o gname
                | None ->
                    Trace.add_guard
                      (Trace.origin ~source:k ~source_loc:Loc.dummy)
                      gname ))
            ctx.all_ids
        in
        Env.set env k v
      else
        match Env.get env k with
        | [] -> env
        | t ->
            Env.set env k
              (Env.map_origins (fun o -> Trace.add_guard o gname) t))
    env keys

(* guard calls appearing syntactically inside an expression *)
let rec guard_calls_in (e : Ast.expr) : (string * string list) list =
  Visitor.fold_expr
    (fun acc (e : Ast.expr) ->
      match e.e with
      | Ast.Call (Ast.F_ident f, args) when is_guard_fn f ->
          (normalize_fn f, guarded_keys_of_args args) :: acc
      | Ast.Isset es ->
          ("isset", guarded_keys_of_args (List.map (fun e -> { Ast.a_expr = e; a_spread = false }) es))
          :: acc
      | Ast.Empty e1 ->
          ("empty", guarded_keys_of_args [ { Ast.a_expr = e1; a_spread = false } ]) :: acc
      | _ -> acc)
    [] e

and refine_true ctx env (cond : Ast.expr) =
  match cond.e with
  | Ast.Binop (Ast.Bool_and, a, b) -> refine_true ctx (refine_true ctx env a) b
  | Ast.Binop (Ast.Bool_or, a, b) ->
      (* symptom semantics, not dominance: a validation on either side of
         a disjunction still counts as validation evidence (Table I) *)
      refine_true ctx (refine_true ctx env a) b
  | Ast.Unop (Ast.Not, a) -> refine_false ctx env a
  | Ast.Call (Ast.F_ident f, args) when is_guard_fn f ->
      add_guard_to ctx env (guarded_keys_of_args args) (normalize_fn f)
  | Ast.Isset es ->
      add_guard_to ctx env
        (guarded_keys_of_args (List.map (fun e -> { Ast.a_expr = e; a_spread = false }) es))
        "isset"
  | Ast.Binop ((Ast.Eq_eq | Ast.Identical | Ast.Neq | Ast.Not_identical | Ast.Gt | Ast.Ge | Ast.Lt | Ast.Le), _, _)
    ->
      (* comparison over a guard's result, e.g. strcmp($x,...) == 0 *)
      List.fold_left
        (fun env (g, keys) -> add_guard_to ctx env keys g)
        env (guard_calls_in cond)
  | _ -> env

and refine_false ctx env (cond : Ast.expr) =
  match cond.e with
  | Ast.Unop (Ast.Not, a) -> refine_true ctx env a
  | Ast.Binop (Ast.Bool_or, a, b) -> refine_false ctx (refine_false ctx env a) b
  | Ast.Call (Ast.F_ident f, args)
    when List.mem (normalize_fn f) set_check_fns ->
      (* `if (empty($x)) ... else <here $x is set>` *)
      add_guard_to ctx env (guarded_keys_of_args args) (normalize_fn f)
  | Ast.Empty e1 ->
      add_guard_to ctx env
        (guarded_keys_of_args [ { Ast.a_expr = e1; a_spread = false } ])
        "empty"
  | Ast.Binop ((Ast.Eq_eq | Ast.Identical | Ast.Neq | Ast.Not_identical), _, _) ->
      List.fold_left
        (fun env (g, keys) -> add_guard_to ctx env keys g)
        env (guard_calls_in cond)
  | _ -> env

(* ------------------------------------------------------------------ *)
(* Expression evaluation.                                              *)

let cast_name = function
  | Ast.C_int -> "(int)"
  | Ast.C_float -> "(float)"
  | Ast.C_string -> "(string)"
  | Ast.C_bool -> "(bool)"
  | Ast.C_array -> "(array)"
  | Ast.C_object -> "(object)"

(* Syntactic literal/dynamic structure of an expression, recorded on
   origins so the SQL-symptom collector can analyse queries assembled in
   variables before the sink. *)
let rec flatten_parts (e : Ast.expr) : Trace.qpart list =
  match e.e with
  | Ast.String s -> [ Trace.Qlit s ]
  | Ast.Int n -> [ Trace.Qlit (string_of_int n) ]
  | Ast.Interp parts ->
      List.concat_map
        (function
          | Ast.Ip_str s -> [ Trace.Qlit s ]
          | Ast.Ip_expr e1 -> flatten_parts e1)
        parts
  | Ast.Binop (Ast.Concat, l, r) -> flatten_parts l @ flatten_parts r
  | Ast.Ternary (_, Some t, f) -> flatten_parts t @ flatten_parts f
  | _ -> [ Trace.Qdyn ]

(* Split a printf-style format string into literal segments and dynamic
   holes, mirroring what an interpolated string would record. *)
let split_format (fmt : string) : Trace.qpart list =
  let n = String.length fmt in
  let out = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Trace.Qlit (Buffer.contents buf) :: !out;
      Buffer.clear buf
    end
  in
  let i = ref 0 in
  while !i < n do
    if fmt.[!i] = '%' && !i + 1 < n then begin
      if fmt.[!i + 1] = '%' then begin
        Buffer.add_char buf '%';
        i := !i + 2
      end
      else begin
        flush ();
        out := Trace.Qdyn :: !out;
        (* skip flags/width up to the conversion letter *)
        incr i;
        while
          !i < n
          && not
               (match fmt.[!i] with
               | 'a' .. 'z' | 'A' .. 'Z' -> true
               | _ -> false)
        do
          incr i
        done;
        if !i < n then incr i
      end
    end
    else begin
      Buffer.add_char buf fmt.[!i];
      incr i
    end
  done;
  flush ();
  List.rev !out

(* Does a statement list end in a control-flow exit? Used for the
   `if (!valid($x)) die();` refinement. *)
let rec terminates (stmts : Ast.stmt list) =
  match List.rev stmts with
  | [] -> false
  | last :: _ -> (
      match last.Ast.s with
      | Ast.Return _ | Ast.Throw _ | Ast.Break _ | Ast.Continue _ -> true
      | Ast.Expr_stmt { e = Ast.Exit _; _ } -> true
      | Ast.If (branches, Some els) ->
          List.for_all (fun (_, b) -> terminates b) branches && terminates els
      | Ast.Block b -> terminates b
      | _ -> false)

let terminates_with_exit (stmts : Ast.stmt list) =
  match List.rev stmts with
  | { Ast.s = Ast.Expr_stmt { e = Ast.Exit _; _ }; _ } :: _ -> true
  | _ -> false

(* Scalar operand-join of two origins (one spec's components). *)
let join_origin_operands (o1 : Trace.origin) (o : Trace.origin) =
  {
    o1 with
    Trace.through = Trace.union_names o1.Trace.through o.Trace.through;
    Trace.guards = Trace.union_names o1.Trace.guards o.Trace.guards;
  }

(* ------------------------------------------------------------------ *)
(* Summary application.                                                *)

(* The specs of one call site usually share their argument origins
   physically (see {!Env.map_origins}), and the per-spec summaries of one
   function share their [through]/[guards] lists the same way.  Each
   origin a call derives is therefore cached on the physical identity of
   its inputs, so the specs keep sharing one result instead of each
   copying the O(depth) [through] list of a call chain.  Keys are
   compared with [==] only: a structural comparison would cost what the
   cache saves.  [cached cache same key compute] returns the result
   remembered under the first key [same] accepts, else [compute ()],
   remembered under [key]. *)
let cached cache same key compute =
  match List.find_map (fun (k, r) -> if same k then Some r else None) !cache with
  | Some r -> r
  | None ->
      let r = compute () in
      cache := (key, r) :: !cache;
      r

let apply_summary_taints ~emit ~loc (fs : Summary.fused) taints ~ids :
    Env.taint =
  let sinks = ref [] and flows = ref [] and joins = ref [] and owns = ref [] in
  (* the argument origin as it reaches a sink inside the callee *)
  let at_sink (o : Trace.origin) through fn =
    cached sinks
      (fun (o', th, fn') -> o' == o && th == through && fn' == fn)
      (o, through, fn)
      (fun () ->
        Trace.add_step
          (List.fold_left Trace.add_through o through)
          { Trace.step_loc = loc;
            step_desc = Printf.sprintf "passed to %s()" fn })
  in
  (* the argument origin as it comes back in the return value *)
  let returned (o : Trace.origin) (pf : Summary.param_flow) fn =
    let th = pf.Summary.pf_through and gu = pf.Summary.pf_guards in
    cached flows
      (fun (o', th', gu', fn') -> o' == o && th' == th && gu' == gu && fn' == fn)
      (o, th, gu, fn)
      (fun () ->
        let o = List.fold_left Trace.add_through o th in
        Trace.add_through (List.fold_left Trace.add_guard o gu) fn)
  in
  let join acc o =
    match acc with
    | None -> Some o
    | Some o1 ->
        Some
          (cached joins
             (fun (a, b) -> a == o1 && b == o)
             (o1, o)
             (fun () -> join_origin_operands o1 o))
  in
  (* the callee's own tainted return, located at the call *)
  let own (o : Trace.origin) =
    cached owns (fun o' -> o' == o) o (fun () -> { o with Trace.source_loc = loc })
  in
  List.filter_map
    (fun id ->
      let s = Summary.for_spec fs id in
      (* interprocedural sinks: a tainted argument reaching a sink inside *)
      List.iter
        (fun (ps : Summary.param_sink) ->
          match List.assoc_opt ps.Summary.ps_index taints with
          | Some tv -> (
              match Env.find tv id with
              | Some o ->
                  emit ~id ~sink_name:ps.Summary.ps_sink_name
                    ~sink_loc:ps.Summary.ps_sink_loc
                    ~tainted:
                      [ ( ps.Summary.ps_index,
                          at_sink o ps.Summary.ps_through s.Summary.fn_name ) ]
              | None -> ())
          | None -> ())
        s.Summary.param_sinks;
      (* return taint *)
      let ret =
        List.fold_left
          (fun acc (i, tv) ->
            match (Env.find tv id, Summary.find_param_flow s i) with
            | Some o, Some pf -> join acc (returned o pf s.Summary.fn_name)
            | _ -> acc)
          None taints
      in
      let ret =
        match ret with
        | None -> Option.map own s.Summary.returns_tainted
        | some -> some
      in
      Option.map (fun o -> (id, o)) ret)
    ids

let rec eval ctx env (e : Ast.expr) : Env.taint * Env.t =
  match e.e with
  | Ast.Int _ | Ast.Float _ | Ast.String _ | Ast.Constant _ | Ast.Class_const _
  | Ast.Static_prop _ ->
      (Env.clean, env)
  | Ast.Interp parts ->
      let t, env =
        List.fold_left
          (fun (t, env) part ->
            match part with
            | Ast.Ip_str _ -> (t, env)
            | Ast.Ip_expr pe ->
                let t2, env = eval ctx env pe in
                (Env.join_operands t t2, env))
          (Env.clean, env) parts
      in
      (* interpolation of tainted data into a literal is an implicit
         string concatenation (Table I symptom) *)
      let t =
        match parts with
        | _ :: _ :: _ ->
            Env.map_origins (fun o -> Trace.add_through o "concat_op") t
        | _ -> t
      in
      (t, env)
  | Ast.Backtick parts ->
      (* the shell-execution operator: evaluates like an interpolated
         string and is an OS-command-injection sink *)
      let t, env =
        List.fold_left
          (fun (t, env) part ->
            match part with
            | Ast.Ip_str _ -> (t, env)
            | Ast.Ip_expr pe ->
                let t2, env = eval ctx env pe in
                (Env.join_operands t t2, env))
          (Env.clean, env) parts
      in
      check_fn_sink ctx ~name:"shell_exec" ~loc:e.eloc ~args:[ e ] ~taints:[ (0, t) ];
      (Env.clean, env)
  | Ast.Var v -> (
      match Lookup.superglobal_ids ctx.lookup v with
      | [] -> (Env.get env v, env)
      | sg_ids ->
          (* entry point for the specs listing [$v] as superglobal; any
             other spec reads the plain variable *)
          let o = Trace.origin ~source:("$" ^ v) ~source_loc:e.eloc in
          let rest = Env.without (Env.get env v) sg_ids in
          (Env.overlay (Env.of_origin ~ids:sg_ids o) rest, env))
  | Ast.Var_var inner ->
      let _, env = eval ctx env inner in
      (Env.clean, env)
  | Ast.Index ({ e = Ast.Var sg; _ }, idx)
    when Lookup.superglobal_ids ctx.lookup sg <> [] ->
      let sg_ids = Lookup.superglobal_ids ctx.lookup sg in
      (* specs for which [sg] is no superglobal follow the generic Index
         rule: taint of the base variable, read before the index (the
         base evaluates first there) *)
      let rest = Env.without (Env.get env sg) sg_ids in
      let env =
        match idx with
        | Some i ->
            let _, env = eval ctx env i in
            env
        | None -> env
      in
      let rendered = render_expr e in
      (* pick up guards previously recorded for this superglobal access *)
      let base = Trace.origin ~source:rendered ~source_loc:e.eloc in
      let prev = Env.get env ("@sg:" ^ rendered) in
      let sg_taint =
        List.map
          (fun id ->
            ( id,
              match Env.find prev id with
              | Some p -> { base with Trace.guards = p.Trace.guards }
              | None -> base ))
          sg_ids
      in
      (Env.overlay sg_taint rest, env)
  | Ast.Index (base, idx) ->
      let t, env = eval ctx env base in
      let env =
        match idx with
        | Some i ->
            let _, env = eval ctx env i in
            env
        | None -> env
      in
      (t, env)
  | Ast.Prop (base, _) -> eval ctx env base
  | Ast.Call (callee, args) -> eval_call ctx env e.eloc callee args
  | Ast.New (cname, args) ->
      let taints, env = eval_args ctx env args in
      let t =
        List.fold_left Env.join_operands Env.clean (List.map snd taints)
      in
      let t =
        Env.map_origins
          (fun o -> Trace.add_through o ("new " ^ normalize_fn cname))
          t
      in
      (t, env)
  | Ast.Clone e1 -> eval ctx env e1
  | Ast.Binop (op, l, r) ->
      let tl, env = eval ctx env l in
      let tr, env = eval ctx env r in
      let t = Env.join_operands tl tr in
      let t =
        match op with
        | Ast.Concat ->
            Env.map_origins (fun o -> Trace.add_through o "concat_op") t
        | _ -> t
      in
      (t, env)
  | Ast.Unop (_, e1) -> eval ctx env e1
  | Ast.Incdec (_, e1) -> eval ctx env e1
  | Ast.Assign (op, lhs, rhs) -> eval_assign ctx env e.eloc op lhs rhs
  | Ast.Assign_ref (lhs, rhs) -> eval_assign ctx env e.eloc Ast.A_eq lhs rhs
  | Ast.Ternary (c, t_br, f_br) ->
      let _, env = eval ctx env c in
      let env_t = refine_true ctx env c and env_f = refine_false ctx env c in
      let tt, env_t =
        match t_br with
        | Some t_br -> eval ctx env_t t_br
        | None ->
            (* `c ?: f` : value of c itself *)
            eval ctx env_t c
      in
      let tf, env_f = eval ctx env_f f_br in
      (Env.join tt tf, Env.merge env_t env_f)
  | Ast.Cast (c, e1) ->
      let t, env = eval ctx env e1 in
      (Env.map_origins (fun o -> Trace.add_through o (cast_name c)) t, env)
  | Ast.Isset es ->
      let env = List.fold_left (fun env e1 -> snd (eval ctx env e1)) env es in
      (Env.clean, env)
  | Ast.Empty e1 ->
      let _, env = eval ctx env e1 in
      (Env.clean, env)
  | Ast.Exit arg ->
      let env =
        match arg with
        | Some a ->
            let t, env = eval ctx env a in
            check_fn_sink ctx ~name:"exit" ~loc:e.eloc ~args:[ a ] ~taints:[ (0, t) ];
            env
        | None -> env
      in
      (Env.clean, env)
  | Ast.Print e1 ->
      let t, env = eval ctx env e1 in
      List.iter
        (fun id ->
          emit_spec ctx ~id ~sink_name:"print" ~loc:e.eloc ~args:[ e1 ]
            ~taints:[ (0, t) ])
        (Lookup.echo_ids ctx.lookup);
      (Env.clean, env)
  | Ast.Include (_, e1) ->
      let t, env = eval ctx env e1 in
      List.iter
        (fun id ->
          emit_spec ctx ~id ~sink_name:"include" ~loc:e.eloc ~args:[ e1 ]
            ~taints:[ (0, t) ])
        (Lookup.include_ids ctx.lookup);
      (Env.clean, env)
  | Ast.List _ -> (Env.clean, env)
  | Ast.Array_lit items ->
      List.fold_left
        (fun (t, env) (it : Ast.array_item) ->
          let env =
            match it.ai_key with
            | Some k -> snd (eval ctx env k)
            | None -> env
          in
          let tv, env = eval ctx env it.ai_value in
          (Env.join_operands t tv, env))
        (Env.clean, env) items
  | Ast.Closure c ->
      (* analyze the closure body in a scope seeded with captured vars *)
      let inner_env =
        List.fold_left
          (fun acc (_, v) -> Env.set acc v (Env.get env v))
          Env.empty c.cl_uses
      in
      let saved = ctx.return_taints in
      ctx.return_taints <- [];
      let _ = exec_stmts ctx inner_env c.cl_body in
      ctx.return_taints <- saved;
      (Env.clean, env)

and check_fn_sink ?only ctx ~name ~loc ~args ~taints =
  List.iter
    (fun (id, _cls, danger_args) ->
      let allowed =
        match only with None -> true | Some ids -> List.mem id ids
      in
      if allowed then
        let relevant =
          match danger_args with
          | [] -> taints
          | positions -> List.filter (fun (i, _) -> List.mem i positions) taints
        in
        emit_spec ctx ~id ~sink_name:(normalize_fn name) ~loc ~args
          ~taints:relevant)
    (Lookup.sink_fn_entries ctx.lookup name)

and eval_args ctx env (args : Ast.arg list) : (int * Env.taint) list * Env.t =
  let _, taints, env =
    List.fold_left
      (fun (i, acc, env) (a : Ast.arg) ->
        let t, env = eval ctx env a.a_expr in
        (i + 1, (i, t) :: acc, env))
      (0, [], env) args
  in
  (List.rev taints, env)

(* Operand-join of all arguments, restricted to [ids], with a [through]
   marker — the propagation default for unknown calls. *)
and join_all ctx ~through ~ids taints =
  let t = List.fold_left Env.join_operands Env.clean (List.map snd taints) in
  let t = if ids == ctx.all_ids then t else Env.restrict t ids in
  Env.map_origins (fun o -> Trace.add_through o through) t

(* A method/function call with no catalog entry for [ids]: either a
   known user function (summary) or the propagation default. *)
and summary_or_join ctx env loc name ~through taints arg_exprs ~ids =
  if ids = [] then Env.clean
  else
    match Summary.find ctx.summaries name with
    | Some fs -> apply_summary ctx env loc fs taints arg_exprs ~ids
    | None -> join_all ctx ~through ~ids taints

and eval_call ctx env loc (callee : Ast.callee) (args : Ast.arg list) :
    Env.taint * Env.t =
  let taints, env = eval_args ctx env args in
  let arg_exprs = List.map (fun (a : Ast.arg) -> a.a_expr) args in
  match callee with
  | Ast.F_method ({ e = Ast.Var obj; _ }, Ast.Mem_ident m)
    when Lookup.sanitizer_method_ids ctx.lookup obj m <> []
         || Lookup.sanitizer_method_ids ctx.lookup "*" m <> []
         || Lookup.sink_method_ids ctx.lookup obj m <> []
         || Lookup.sink_method_ids ctx.lookup "*" m <> [] ->
      let san =
        union_ids
          (Lookup.sanitizer_method_ids ctx.lookup obj m)
          (Lookup.sanitizer_method_ids ctx.lookup "*" m)
      in
      let snk =
        diff_ids
          (union_ids
             (Lookup.sink_method_ids ctx.lookup obj m)
             (Lookup.sink_method_ids ctx.lookup "*" m))
          san
      in
      let rest = diff_ids ctx.all_ids (union_ids san snk) in
      if snk <> [] then begin
        let name = normalize_fn obj ^ "->" ^ normalize_fn m in
        List.iter
          (fun id -> emit_spec ctx ~id ~sink_name:name ~loc ~args:arg_exprs ~taints)
          snk
      end;
      (* sanitizer and sink specs see a clean result; the rest treat the
         call as a possible user method *)
      ( summary_or_join ctx env loc m ~through:(normalize_fn m) taints arg_exprs
          ~ids:rest,
        env )
  | Ast.F_method (_, Ast.Mem_ident m) ->
      ( summary_or_join ctx env loc m ~through:(normalize_fn m) taints arg_exprs
          ~ids:ctx.all_ids,
        env )
  | Ast.F_method (_, Ast.Mem_expr _) | Ast.F_var _ ->
      (join_all ctx ~through:"<dynamic>" ~ids:ctx.all_ids taints, env)
  | Ast.F_static (c, m) ->
      ( summary_or_join ctx env loc m
          ~through:(normalize_fn c ^ "::" ^ normalize_fn m)
          taints arg_exprs ~ids:ctx.all_ids,
        env )
  | Ast.F_ident f ->
      let lf = normalize_fn f in
      let san = Lookup.sanitizer_fn_ids ctx.lookup lf in
      let src = diff_ids (Lookup.source_fn_ids ctx.lookup lf) san in
      let rest = diff_ids ctx.all_ids (union_ids san src) in
      let src_taint =
        match src with
        | [] -> Env.clean
        | _ -> Env.of_origin ~ids:src (Trace.origin ~source:lf ~source_loc:loc)
      in
      let rest_taint =
        if rest = [] then Env.clean
        else if lf = "sprintf" || lf = "vsprintf" then begin
          (* format-string building: taint flows from the arguments into
             the result, and the format literal gives the query structure *)
          match join_all ctx ~through:lf ~ids:rest taints with
          | [] -> Env.clean
          | t ->
              let parts =
                match arg_exprs with
                | { e = Ast.String fmt; _ } :: _ -> split_format fmt
                | _ -> [ Trace.Qdyn ]
              in
              Env.map_origins (fun o -> Trace.with_parts o parts) t
        end
        else begin
          (* sink check, then propagation *)
          let only =
            if lf = "preg_replace" then begin
              (* only the /e modifier makes preg_replace a PHP-code sink *)
              let dangerous =
                match arg_exprs with
                | { e = Ast.String pat; _ } :: _ ->
                    String.length pat > 0
                    &&
                    let last = pat.[String.length pat - 1] in
                    last = 'e'
                | _ -> true (* dynamic pattern: conservatively dangerous *)
              in
              if dangerous then rest
              else
                List.filter
                  (fun id -> ctx.specs.(id).Cat.vclass <> VC.Phpci)
                  rest
            end
            else rest
          in
          check_fn_sink ctx ~only ~name:lf ~loc ~args:arg_exprs ~taints;
          match Summary.find ctx.summaries lf with
          | Some fs -> apply_summary ctx env loc fs taints arg_exprs ~ids:rest
          | None ->
              if is_guard_fn lf || List.mem lf return_clean_fns then Env.clean
              else join_all ctx ~through:lf ~ids:rest taints
        end
      in
      (Env.overlay src_taint rest_taint, env)

and apply_summary ctx _env loc (fs : Summary.fused) taints arg_exprs ~ids :
    Env.taint =
  apply_summary_taints ~loc fs taints ~ids
    ~emit:(fun ~id ~sink_name ~sink_loc ~tainted ->
      emit_one ctx ~id ~sink_name ~loc:sink_loc ~args:arg_exprs ~tainted)

(* ------------------------------------------------------------------ *)
(* Assignment.                                                         *)

and eval_assign ctx env loc op (lhs : Ast.expr) (rhs : Ast.expr) :
    Env.taint * Env.t =
  let t_rhs, env = eval ctx env rhs in
  let t_prev, env =
    match op with
    | Ast.A_eq -> (Env.clean, env)
    | _ -> eval ctx env lhs
  in
  let t = Env.join_operands t_prev t_rhs in
  let t =
    match op with
    | Ast.A_concat ->
        Env.map_origins (fun o -> Trace.add_through o "concat_op") t
    | _ -> t
  in
  let t =
    match t with
    | [] -> Env.clean
    | _ ->
        let step =
          { Trace.step_loc = loc;
            step_desc =
              String.concat " "
                [ render_expr lhs; Printer.assign_sym op; render_expr rhs ] }
        in
        let rhs_parts = flatten_parts rhs in
        Env.map_origins
          (fun o ->
            let o = Trace.add_step o step in
            (* remember the string structure being built; `.=` extends
               it; an opaque right-hand side (e.g. a sprintf call that
               already recorded its format) keeps the structure gathered
               so far *)
            match op with
            | Ast.A_concat -> Trace.extend_parts o rhs_parts
            | _ -> (
                match rhs_parts with
                | [ Trace.Qdyn ] when o.Trace.parts <> [] -> o
                | p -> Trace.with_parts o p))
          t
  in
  let env = assign_to ctx env lhs t in
  (t, env)

and assign_to ctx env (lhs : Ast.expr) (t : Env.taint) : Env.t =
  match lhs.e with
  | Ast.Var v -> (
      match Lookup.superglobal_ids ctx.lookup v with
      | [] -> Env.set env v t
      | sg_ids ->
          (* specs treating [$v] as a superglobal never store to it; the
             others do *)
          let kept = Env.restrict (Env.get env v) sg_ids in
          Env.set env v (Env.overlay kept (Env.without t sg_ids)))
  | Ast.Index (base, _) | Ast.Prop (base, _) -> (
      (* coarse: the whole container becomes (partially) tainted *)
      match Ast.base_variable base with
      | Some v ->
          let merged = Env.join_operands (Env.get env v) t in
          Env.set env v merged
      | None -> env)
  | Ast.List es ->
      List.fold_left
        (fun env e1 ->
          match e1 with Some e1 -> assign_to ctx env e1 t | None -> env)
        env es
  | Ast.Var_var _ | Ast.Static_prop _ -> env
  | _ -> env

(* ------------------------------------------------------------------ *)
(* Statements.                                                         *)

and exec_stmts ctx env (stmts : Ast.stmt list) : Env.t =
  List.fold_left (exec_stmt ctx) env stmts

and exec_stmt ctx env (s : Ast.stmt) : Env.t =
  match s.s with
  | Ast.Expr_stmt e -> snd (eval ctx env e)
  | Ast.Echo es ->
      let echo_ids = Lookup.echo_ids ctx.lookup in
      List.fold_left
        (fun env e ->
          let t, env = eval ctx env e in
          List.iter
            (fun id ->
              emit_spec ctx ~id ~sink_name:"echo" ~loc:s.sloc ~args:[ e ]
                ~taints:[ (0, t) ])
            echo_ids;
          env)
        env es
  | Ast.If (branches, els) -> exec_if ctx env branches els
  | Ast.While (cond, body) ->
      let _, env0 = eval ctx env cond in
      loop_fixpoint ctx env0 ~enter:(fun e -> refine_true ctx e cond) ~body
  | Ast.Do_while (body, cond) ->
      let env = exec_stmts ctx env body in
      let _, env = eval ctx env cond in
      loop_fixpoint ctx env ~enter:(fun e -> refine_true ctx e cond) ~body
  | Ast.For (init, conds, steps, body) ->
      let env = List.fold_left (fun env e -> snd (eval ctx env e)) env init in
      let env = List.fold_left (fun env e -> snd (eval ctx env e)) env conds in
      let body' = body in
      let env =
        loop_fixpoint ctx env ~enter:(fun e -> e)
          ~body:body'
      in
      List.fold_left (fun env e -> snd (eval ctx env e)) env steps
  | Ast.Foreach (subject, binding, body) ->
      let t_subj, env = eval ctx env subject in
      let t_subj =
        match t_subj with
        | [] -> Env.clean
        | _ ->
            let step =
              { Trace.step_loc = s.sloc;
                step_desc = "foreach over " ^ render_expr subject }
            in
            Env.map_origins (fun o -> Trace.add_step o step) t_subj
      in
      let env = assign_to ctx env binding.fe_value t_subj in
      let env =
        match binding.fe_key with
        | Some k -> assign_to ctx env k t_subj
        | None -> env
      in
      loop_fixpoint ctx env ~enter:(fun e -> e) ~body
  | Ast.Switch (subject, cases) ->
      let _, env = eval ctx env subject in
      let case_envs =
        List.map
          (fun case ->
            match case with
            | Ast.Case (e, body) ->
                let _, env' = eval ctx env e in
                exec_stmts ctx env' body
            | Ast.Default body -> exec_stmts ctx env body)
          cases
      in
      List.fold_left Env.merge env case_envs
  | Ast.Return e -> (
      match e with
      | Some e ->
          let t, env = eval ctx env e in
          (* record only the components of specs still iterating: a spec
             whose loop already stabilized stopped recording returns in
             its single-spec run too *)
          let t_rec =
            if ctx.live == ctx.all_ids then t else Env.restrict t ctx.live
          in
          ctx.return_taints <- t_rec :: ctx.return_taints;
          env
      | None -> env)
  | Ast.Break _ | Ast.Continue _ | Ast.Inline_html _ | Ast.Nop | Ast.Const_def _ -> env
  | Ast.Global vs ->
      (* conservative: global state is unknown, treat as clean *)
      List.fold_left (fun env v -> Env.set env v Env.clean) env vs
  | Ast.Static_vars vs ->
      List.fold_left
        (fun env (v, init) ->
          match init with
          | Some e ->
              let t, env = eval ctx env e in
              Env.set env v t
          | None -> Env.set env v Env.clean)
        env vs
  | Ast.Unset es ->
      List.fold_left
        (fun env e ->
          match e.Ast.e with Ast.Var v -> Env.remove env v | _ -> env)
        env es
  | Ast.Throw e -> snd (eval ctx env e)
  | Ast.Try (body, catches, fin) ->
      let env_body = exec_stmts ctx env body in
      let env_catches =
        List.map
          (fun (c : Ast.catch) ->
            let env =
              match c.c_var with
              | Some v -> Env.set env v Env.clean
              | None -> env
            in
            exec_stmts ctx env c.c_body)
          catches
      in
      let env = List.fold_left Env.merge env_body env_catches in
      (match fin with Some b -> exec_stmts ctx env b | None -> env)
  | Ast.Func_def _ | Ast.Class_def _ ->
      (* bodies are analyzed separately, as their own scopes *)
      env
  | Ast.Block body -> exec_stmts ctx env body

and exec_if ctx env branches els : Env.t =
  (* evaluate conditions for side effects first *)
  let env =
    List.fold_left (fun env (c, _) -> snd (eval ctx env c)) env branches
  in
  let branch_envs =
    List.map
      (fun (cond, body) ->
        let env_in = refine_true ctx env cond in
        let env_out = exec_stmts ctx env_in body in
        (cond, body, env_out))
      branches
  in
  let fallthrough_env =
    (* the path where every condition was false; a branch that rejects bad
       input with exit/die additionally marks the flow with the
       "error and exit" symptom *)
    List.fold_left
      (fun e (cond, body) ->
        let e = refine_false ctx e cond in
        if terminates_with_exit body then
          List.fold_left
            (fun e (_, keys) -> add_guard_to ctx e keys "exit")
            e (guard_calls_in cond)
        else e)
      env branches
  in
  let else_env =
    match els with
    | Some body -> Some (exec_stmts ctx fallthrough_env body)
    | None -> None
  in
  (* branches that exit don't contribute to the merged state *)
  let live =
    List.filter_map
      (fun (_, body, env_out) -> if terminates body then None else Some env_out)
      branch_envs
  in
  let live =
    match els with
    | Some body -> (
        match else_env with
        | Some e when not (terminates body) -> e :: live
        | _ -> live)
    | None -> fallthrough_env :: live
  in
  match live with
  | [] -> fallthrough_env
  | first :: rest -> List.fold_left Env.merge first rest

and loop_fixpoint ctx env ~enter ~body : Env.t =
  (* Per-spec fixpoint: each iteration runs the body once for everyone,
     but a spec whose environment stabilized is retired — it stops
     recording (returns, sinks) and its stabilization-time environment
     is restored at the end — so every spec sees exactly the iterations
     its own single-spec run would have executed. *)
  let saved = ctx.live in
  let rec iterate env frozen live n =
    if live = [] || n = 0 then (env, frozen)
    else begin
      ctx.live <- live;
      let env' = Env.merge env (exec_stmts ctx (enter env) body) in
      let stable, unstable =
        List.partition (fun id -> Env.equal_shallow_for id env env') live
      in
      let frozen = List.map (fun id -> (id, env')) stable @ frozen in
      if unstable = [] then (env', frozen)
      else iterate env' frozen unstable (n - 1)
    end
  in
  let env_final, frozen = iterate env [] saved 3 in
  ctx.live <- saved;
  (* a spec frozen at the final environment needs no blending: each
     blend touches only its own component *)
  List.fold_left
    (fun acc (id, e) -> if e == env_final then acc else Env.blend acc ~from:e id)
    env_final frozen

(* ------------------------------------------------------------------ *)
(* Function / scope analysis.                                          *)

let analyze_function ctx (f : Ast.func) : Summary.fused =
  let env =
    List.fold_left
      (fun (i, env) (p : Ast.param) ->
        ( i + 1,
          Env.set env p.p_name
            (Env.of_origin ~ids:ctx.all_ids
               (Trace.origin ~source:(Trace.param_source i) ~source_loc:f.f_loc)) ))
      (0, Env.empty) f.f_params
    |> snd
  in
  ctx.return_taints <- [];
  ctx.param_sinks <- [];
  ctx.current_fn <- Some f.f_name;
  let _ = exec_stmts ctx env f.f_body in
  let fn_name = normalize_fn f.f_name in
  let arity = List.length f.f_params in
  let per_spec =
    List.map
      (fun id ->
        let returns_params =
          List.fold_left
            (fun acc t ->
              match Env.find t id with
              | Some o -> (
                  match Trace.param_index_of_source o.Trace.source with
                  | Some i
                    when not
                           (List.exists
                              (fun pf -> pf.Summary.pf_index = i)
                              acc) ->
                      { Summary.pf_index = i; pf_through = o.Trace.through;
                        pf_guards = o.Trace.guards }
                      :: acc
                  | _ -> acc)
              | None -> acc)
            [] ctx.return_taints
        in
        let returns_tainted =
          List.find_map
            (fun t ->
              match Env.find t id with
              | Some o when Trace.param_index_of_source o.Trace.source = None ->
                  Some o
              | _ -> None)
            ctx.return_taints
        in
        let param_sinks =
          List.rev
            (List.filter_map
               (fun (i, ps) -> if i = id then Some ps else None)
               ctx.param_sinks)
        in
        { Summary.fn_name; arity; returns_params; param_sinks; returns_tainted })
      ctx.all_ids
  in
  ctx.current_fn <- None;
  ctx.param_sinks <- [];
  ctx.return_taints <- [];
  Summary.fused_of_list fn_name arity per_spec

(* ------------------------------------------------------------------ *)
(* Public API.                                                         *)

type file_unit = { path : string; program : Ast.program }

(* Literal include targets: 'config.php' or 'dir/' . 'file.php'. *)
let rec literal_path (e : Ast.expr) : string option =
  match e.e with
  | Ast.String s -> Some s
  | Ast.Binop (Ast.Concat, l, r) -> (
      match (literal_path l, literal_path r) with
      | Some a, Some b -> Some (a ^ b)
      | _ -> None)
  | _ -> None

(** Top-level [include]/[require] of project files is spliced in place,
    the way PHP assembles pages from headers and configuration files —
    taint set up in an included file flows into the includer.  Matching
    is by base name; cycles and deep chains are cut at depth 8. *)
let rec splice_includes ~(units : file_unit list) ~depth ~visited
    (prog : Ast.program) : Ast.program =
  if depth > 8 then prog
  else
    List.concat_map
      (fun (s : Ast.stmt) ->
        match s.Ast.s with
        | Ast.Expr_stmt { e = Ast.Include (_, arg); _ } -> (
            match literal_path arg with
            | Some p -> (
                let base = Filename.basename p in
                match
                  List.find_opt (fun u -> Filename.basename u.path = base) units
                with
                | Some u when not (List.mem u.path visited) ->
                    splice_includes ~units ~depth:(depth + 1)
                      ~visited:(u.path :: visited) u.program
                | _ -> [ s ])
            | None -> [ s ])
        | _ -> [ s ])
      prog

(* ------------------------------------------------------------------ *)
(* Per-file steps.                                                     *)

(* All mutable analysis state of one (spec set, project) run lives in
   this record; nothing is global, so any number of projects can be
   analyzed concurrently (one state each) — the re-entrancy the parallel
   scan engine relies on. *)
type project_state = {
  st_specs : Cat.spec array;
  st_interprocedural : bool;
  st_summaries : Summary.table;
  st_lookup : Lookup.t;
  st_ctx : ctx;
      (** Full-phase context shared by the sequential function sweeps of
          every file, so cross-file candidate de-duplication matches a
          whole-project run *)
}

let project_state ?(interprocedural = true) ~(specs : Cat.spec list) () =
  let specs = Array.of_list specs in
  let summaries = Summary.create_table () in
  let lookup = Lookup.of_specs (Array.to_list specs) in
  {
    st_specs = specs;
    st_interprocedural = interprocedural;
    st_summaries = summaries;
    st_lookup = lookup;
    st_ctx = make_ctx ~specs ~lookup ~phase:Full ~summaries;
  }

(** Summary sweep over one file: each function's summary is registered
    as soon as it is computed, so later functions (and later files) see
    earlier ones. *)
let summarize_file_delta st (u : file_unit) : Summary.fused list =
  Wap_obs.Trace.with_span ~cat:"taint" "summarize_file"
    ~args:[ ("file", u.path) ]
  @@ fun () ->
  let ctx =
    make_ctx ~specs:st.st_specs ~lookup:st.st_lookup ~phase:Summaries_only
      ~summaries:st.st_summaries
  in
  ctx.file <- u.path;
  List.map
    (fun f ->
      let s = analyze_function ctx f in
      Summary.register st.st_summaries s;
      s)
    (Visitor.collect_functions u.program)

let summarize_file st (u : file_unit) : unit =
  ignore (summarize_file_delta st u)

let register_summaries st (fs : Summary.fused list) : unit =
  List.iter (Summary.register st.st_summaries) fs

(** Function-body sweep over one file: returns the candidates found
    inside this file's function bodies (spec-indexed, discovery order)
    and (interprocedurally) refines their summaries now that callees are
    known.  Must be driven sequentially, in file order, on one state:
    the shared context's de-duplication spans files. *)
let analyze_file_functions st (u : file_unit) : (int * Trace.candidate) list =
  Wap_obs.Trace.with_span ~cat:"taint" "analyze_functions"
    ~args:[ ("file", u.path) ]
  @@ fun () ->
  st.st_ctx.file <- u.path;
  let before = st.st_ctx.candidates in
  List.iter
    (fun f ->
      let s = analyze_function st.st_ctx f in
      if st.st_interprocedural then Summary.register st.st_summaries s)
    (Visitor.collect_functions u.program);
  (* this file's delta, oldest first ([candidates] is prepend-only) *)
  let rec delta acc l =
    if l == before then acc
    else match l with x :: tl -> delta (x :: acc) tl | [] -> acc
  in
  delta [] st.st_ctx.candidates

(** Top-level sweep over one file, using the final summaries; literal
    includes of project files are spliced so taint crosses file
    boundaries.  Pure with respect to the state (fresh context per call,
    read-only summary table), so calls for different files may run
    concurrently once the function sweeps are done.  Candidates are
    de-duplicated within the file only; {!finalize} restores the
    cross-file (and cross-pass) de-duplication. *)
let analyze_file_toplevel st ~(units : file_unit list) (u : file_unit) :
    (int * Trace.candidate) list =
  Wap_obs.Trace.with_span ~cat:"taint" "analyze_toplevel"
    ~args:[ ("file", u.path) ]
  @@ fun () ->
  let ctx =
    make_ctx ~specs:st.st_specs ~lookup:st.st_lookup ~phase:Full
      ~summaries:st.st_summaries
  in
  ctx.file <- u.path;
  let program = splice_includes ~units ~depth:0 ~visited:[ u.path ] u.program in
  ignore (exec_stmts ctx Env.empty program);
  List.rev ctx.candidates

(* Base names a file's top-level includes resolve against — the exact
   matching [splice_includes] performs, exposed so an incremental
   caller (the session engine) can compute which files would re-splice
   an edited one.  Only top-level statements count, like the splice. *)
let include_basenames (prog : Ast.program) : string list =
  List.filter_map
    (fun (s : Ast.stmt) ->
      match s.Ast.s with
      | Ast.Expr_stmt { e = Ast.Include (_, arg); _ } ->
          Option.map Filename.basename (literal_path arg)
      | _ -> None)
    prog

(** Cross-file/cross-pass de-duplication sweep (first emission wins,
    exactly like one shared context), then the dead-sink filter:
    candidates whose sink control flow provably never reaches (after an
    unconditional exit/die/return/throw) are not vulnerabilities. *)
let finalize_with ~(is_dead : Loc.t -> bool)
    (cands : (int * Trace.candidate) list) : (int * Trace.candidate) list =
  let seen = Hashtbl.create 64 in
  let deduped =
    List.filter
      (fun ic ->
        let k = indexed_key ic in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      cands
  in
  Wap_obs.Trace.with_span ~cat:"taint" "dead_sink_filter" @@ fun () ->
  List.filter
    (fun (_, (c : Trace.candidate)) -> not (is_dead c.Trace.sink_loc))
    deduped

let finalize ~(units : file_unit list) (cands : (int * Trace.candidate) list) :
    (int * Trace.candidate) list =
  let dead = Wap_flow.Reach.create () in
  List.iter (fun u -> Wap_flow.Reach.add_program dead u.program) units;
  finalize_with ~is_dead:(Wap_flow.Reach.is_dead dead) cands

(* Read-only views of a project state, for the IR reference (Wap_ir)
   that replays pass 3 over lowered instruction arrays. *)
let state_specs st = st.st_specs
let state_lookup st = st.st_lookup
let state_summaries st = st.st_summaries

(** Analyze a set of files as one application under all given detector
    specs at once.  Function summaries are shared across the whole set,
    which is how WAP sees applications spread over many included files;
    the result pairs each candidate with the id (list position) of the
    spec that found it, in discovery order.

    [interprocedural:false] disables the summary mechanism (function
    bodies are still scanned for local flows, but taint no longer crosses
    call boundaries) — the ablation of DESIGN.md §6. *)
let analyze_project_indexed ?(interprocedural = true)
    ~(specs : Cat.spec list) (units : file_unit list) :
    (int * Trace.candidate) list =
  let span name f = Wap_obs.Trace.with_span ~cat:"taint" name f in
  let st = project_state ~interprocedural ~specs () in
  (* pass 1: build summaries without emitting candidates *)
  if interprocedural then
    span "pass1.summaries" (fun () -> List.iter (summarize_file st) units);
  (* pass 2: refine summaries now that callees are known, and emit
     candidates found inside function bodies *)
  let pass2 =
    span "pass2.functions" (fun () ->
        List.concat_map (analyze_file_functions st) units)
  in
  (* pass 3: top-level flows, using the final summaries *)
  let pass3 =
    span "pass3.toplevel" (fun () ->
        List.concat_map (analyze_file_toplevel st ~units) units)
  in
  finalize ~units (pass2 @ pass3)

(** Single-spec view: the fused analysis of a one-spec set. *)
let analyze_project ?(interprocedural = true) ~(spec : Cat.spec)
    (units : file_unit list) : Trace.candidate list =
  List.map snd (analyze_project_indexed ~interprocedural ~specs:[ spec ] units)

(** Analyze a single parsed file. *)
let analyze_program ~spec ~file (program : Ast.program) : Trace.candidate list
    =
  analyze_project ~spec [ { path = file; program } ]

(** Run several detector specs over the same project — one fused pass —
    and return the findings grouped by spec, in spec order (the shape a
    sequential run per sub-module configuration, as in Fig. 2, would
    produce). *)
let analyze_with_specs ?(interprocedural = true) ~(specs : Cat.spec list)
    (units : file_unit list) : Trace.candidate list =
  let indexed = analyze_project_indexed ~interprocedural ~specs units in
  List.concat
    (List.mapi
       (fun i _ ->
         List.filter_map (fun (j, c) -> if j = i then Some c else None) indexed)
       specs)
