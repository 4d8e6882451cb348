(** The IR taint executor (see the interface for the contract).

    Each case below is the image of one [eval]/[exec_stmt] case of the
    AST walker under the lowering: same joins, same emission points,
    same structural merges, same loop fixpoint — with the per-expression
    dispatch, rendering and catalog lookups already paid at lowering
    time.  When editing, keep the correspondence with
    {!Wap_taint.Analyzer} exact; the [scan-ir-equiv] oracle and the
    corpus tests check byte-identity of the exported results. *)

open Wap_php
module A = Wap_taint.Analyzer
module Env = Wap_taint.Env
module Trace = Wap_taint.Trace
module Summary = Wap_taint.Summary
module Cat = Wap_catalog.Catalog

type ctx = {
  specs : Cat.spec array;
  all_ids : int list;
  summaries : Summary.table;
  file : string;
  mutable candidates : (int * Trace.candidate) list;  (** newest first *)
  seen : (string, unit) Hashtbl.t;
  mutable return_taints : Env.taint list;
  mutable param_sinks : (int * Summary.param_sink) list;
  mutable live : int list;
  temps : Env.taint array;
  blocks : Ir.instr array array;
}

let is_live ctx id = ctx.live == ctx.all_ids || List.mem id ctx.live

(* ------------------------------------------------------------------ *)
(* Candidate emission — the walker's [emit_one]/[emit_spec], phase
   always Full (the IR path only runs pass 3).                          *)

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
      if real <> [] then begin
        let file = if loc.Loc.file = "<none>" then ctx.file else loc.Loc.file in
        let key =
          A.candidate_key ~id ~file ~sink_name ~loc
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

let emit_spec ctx ~id ~sink_name ~loc ~args ~taints =
  let tainted =
    List.filter_map
      (fun (i, t) -> Option.map (fun o -> (i, o)) (Env.find t id))
      taints
  in
  emit_one ctx ~id ~sink_name ~loc ~args ~tainted

(* ------------------------------------------------------------------ *)
(* Guard plans — the walker's [add_guard_to], applied to a precomputed
   plan instead of a re-analyzed condition.                             *)

let add_guard_to ctx env keys gname =
  List.fold_left
    (fun env k ->
      if String.length k > 4 && String.sub k 0 4 = "@sg:" then
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
            Env.set env k (Env.map_origins (fun o -> Trace.add_guard o gname) t))
    env keys

let apply_plan ctx env (plan : Ir.plan) =
  match plan with
  | [] -> env
  | _ ->
      List.fold_left
        (fun env (g : Ir.guard) -> add_guard_to ctx env g.Ir.g_keys g.Ir.g_name)
        env plan

(* ------------------------------------------------------------------ *)
(* Calls.                                                               *)

let ids_of ctx = function Ir.All -> ctx.all_ids | Ir.Only l -> l

let join_all _ctx ~through ~ids taints =
  let t = List.fold_left Env.join_operands Env.clean (List.map snd taints) in
  let t = match ids with Ir.All -> t | Ir.Only l -> Env.restrict t l in
  Env.map_origins (fun o -> Trace.add_through o through) t

let apply_summary ctx loc (fs : Summary.fused) taints arg_exprs ~ids :
    Env.taint =
  A.apply_summary_taints ~loc fs taints ~ids:(ids_of ctx ids)
    ~emit:(fun ~id ~sink_name ~sink_loc ~tainted ->
      emit_one ctx ~id ~sink_name ~loc:sink_loc ~args:arg_exprs ~tainted)

let summary_or_join ctx loc name ~through taints arg_exprs ~ids =
  match ids with
  | Ir.Only [] -> Env.clean
  | _ -> (
      match Summary.find ctx.summaries name with
      | Some fs -> apply_summary ctx loc fs taints arg_exprs ~ids
      | None -> join_all ctx ~through ~ids taints)

let exec_call ctx loc taints arg_exprs (target : Ir.call_target) : Env.taint =
  match target with
  | Ir.Ct_dynamic -> join_all ctx ~through:"<dynamic>" ~ids:Ir.All taints
  | Ir.Ct_named { fname; through; ids } ->
      summary_or_join ctx loc fname ~through taints arg_exprs ~ids
  | Ir.Ct_fn { lf; src; rest; special } ->
      let src_taint =
        match src with
        | [] -> Env.clean
        | _ -> Env.of_origin ~ids:src (Trace.origin ~source:lf ~source_loc:loc)
      in
      let rest_taint =
        match rest with
        | Ir.Only [] -> Env.clean
        | _ -> (
            match special with
            | Ir.Fs_sprintf parts -> (
                match join_all ctx ~through:lf ~ids:rest taints with
                | [] -> Env.clean
                | t -> Env.map_origins (fun o -> Trace.with_parts o parts) t)
            | Ir.Fs_plain { clean_if_unknown } -> (
                match Summary.find ctx.summaries lf with
                | Some fs -> apply_summary ctx loc fs taints arg_exprs ~ids:rest
                | None ->
                    if clean_if_unknown then Env.clean
                    else join_all ctx ~through:lf ~ids:rest taints))
      in
      Env.overlay src_taint rest_taint

(* ------------------------------------------------------------------ *)
(* Stores — the walker's [assign_to].                                   *)

let rec store_lv env (lv : Ir.lvalue) t =
  match lv with
  | Ir.Lv_var { name; sg_ids } -> (
      match sg_ids with
      | [] -> Env.set env name t
      | _ ->
          let kept = Env.restrict (Env.get env name) sg_ids in
          Env.set env name (Env.overlay kept (Env.without t sg_ids)))
  | Ir.Lv_index base | Ir.Lv_prop base -> (
      match base with
      | Some v -> Env.set env v (Env.join_operands (Env.get env v) t)
      | None -> env)
  | Ir.Lv_list es ->
      List.fold_left
        (fun env lv ->
          match lv with Some lv -> store_lv env lv t | None -> env)
        env es
  | Ir.Lv_skip -> env

(* ------------------------------------------------------------------ *)
(* The instruction sweep.                                               *)

let rec exec_block ctx env bid : Env.t =
  let instrs = ctx.blocks.(bid) in
  let n = Array.length instrs in
  let env = ref env in
  for i = 0 to n - 1 do
    env := exec_instr ctx !env (Array.unsafe_get instrs i)
  done;
  !env

and exec_instr ctx env (i : Ir.instr) : Env.t =
  let tp = ctx.temps in
  match i with
  | Ir.Const { dst } ->
      tp.(dst) <- Env.clean;
      env
  | Ir.Copy { dst; src } ->
      tp.(dst) <- tp.(src);
      env
  | Ir.Load_var { dst; name; sg_ids; loc } ->
      (match sg_ids with
      | [] -> tp.(dst) <- Env.get env name
      | _ ->
          let o = Trace.origin ~source:("$" ^ name) ~source_loc:loc in
          let rest = Env.without (Env.get env name) sg_ids in
          tp.(dst) <- Env.overlay (Env.of_origin ~ids:sg_ids o) rest);
      env
  | Ir.Read_rest { dst; name; sg_ids } ->
      tp.(dst) <- Env.without (Env.get env name) sg_ids;
      env
  | Ir.Sg_index { dst; rest; sg_ids; rendered; loc } ->
      let base = Trace.origin ~source:rendered ~source_loc:loc in
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
      tp.(dst) <- Env.overlay sg_taint tp.(rest);
      env
  | Ir.Array_get { dst; base } | Ir.Field_get { dst; base } ->
      tp.(dst) <- tp.(base);
      env
  | Ir.Binop { dst; l; r; concat } ->
      let t = Env.join_operands tp.(l) tp.(r) in
      tp.(dst) <-
        (if concat then
           Env.map_origins (fun o -> Trace.add_through o "concat_op") t
         else t);
      env
  | Ir.Join { dst; srcs; mark } ->
      let t =
        List.fold_left (fun acc s -> Env.join_operands acc tp.(s)) Env.clean srcs
      in
      tp.(dst) <-
        (match mark with
        | Some m -> Env.map_origins (fun o -> Trace.add_through o m) t
        | None -> t);
      env
  | Ir.Through { dst; src; name } ->
      tp.(dst) <- Env.map_origins (fun o -> Trace.add_through o name) tp.(src);
      env
  | Ir.Assign_val { dst; rhs; prev; op; lhs_e; rhs_e; loc } ->
      let concat = op = Ast.A_concat in
      let t_prev = match prev with None -> Env.clean | Some p -> tp.(p) in
      let t = Env.join_operands t_prev tp.(rhs) in
      let t =
        if concat then
          Env.map_origins (fun o -> Trace.add_through o "concat_op") t
        else t
      in
      let t =
        match t with
        | [] -> Env.clean
        | _ ->
            let step =
              { Trace.step_loc = loc;
                step_desc =
                  String.concat " "
                    [ A.render_expr lhs_e; Printer.assign_sym op;
                      A.render_expr rhs_e ] }
            in
            let rps = A.flatten_parts rhs_e in
            Env.map_origins
              (fun o ->
                let o = Trace.add_step o step in
                if concat then Trace.extend_parts o rps
                else
                  match rps with
                  | [ Trace.Qdyn ] when o.Trace.parts <> [] -> o
                  | p -> Trace.with_parts o p)
              t
      in
      tp.(dst) <- t;
      env
  | Ir.Store_var { src; name; sg_ids } -> (
      let t = tp.(src) in
      match sg_ids with
      | [] -> Env.set env name t
      | _ ->
          let kept = Env.restrict (Env.get env name) sg_ids in
          Env.set env name (Env.overlay kept (Env.without t sg_ids)))
  | Ir.Array_set { src; base } | Ir.Field_set { src; base } -> (
      match base with
      | Some v -> Env.set env v (Env.join_operands (Env.get env v) tp.(src))
      | None -> env)
  | Ir.Store { src; lv } -> store_lv env lv tp.(src)
  | Ir.Sink { name; loc; args; taints; targets } ->
      let tts = List.map (fun (i, tm) -> (i, tp.(tm))) taints in
      List.iter
        (fun (id, positions) ->
          let relevant =
            match positions with
            | [] -> tts
            | ps -> List.filter (fun (i, _) -> List.mem i ps) tts
          in
          emit_spec ctx ~id ~sink_name:name ~loc ~args ~taints:relevant)
        targets;
      env
  | Ir.Call { dst; loc; args; arg_exprs; target } ->
      let tts = List.map (fun (i, tm) -> (i, tp.(tm))) args in
      tp.(dst) <- exec_call ctx loc tts arg_exprs target;
      env
  | Ir.Closure { uses; body } ->
      let inner =
        List.fold_left (fun acc v -> Env.set acc v (Env.get env v)) Env.empty uses
      in
      let saved = ctx.return_taints in
      ctx.return_taints <- [];
      let _ = exec_block ctx inner body in
      ctx.return_taints <- saved;
      env
  | Ir.Ternary { dst; plan_t; plan_f; t_blk; t_res; f_blk; f_res } ->
      let env_t = apply_plan ctx env plan_t in
      let env_f = apply_plan ctx env plan_f in
      let env_t = exec_block ctx env_t t_blk in
      let tt = tp.(t_res) in
      let env_f = exec_block ctx env_f f_blk in
      let tf = tp.(f_res) in
      tp.(dst) <- Env.join tt tf;
      Env.merge env_t env_f
  | Ir.Run { blk } -> exec_block ctx env blk
  | Ir.Loop { enter; body } -> loop_fixpoint ctx env ~enter ~body
  | Ir.If_s { arms; else_ } -> exec_if ctx env arms else_
  | Ir.Switch_s { cases } ->
      let case_envs = List.map (fun b -> exec_block ctx env b) cases in
      List.fold_left Env.merge env case_envs
  | Ir.Try_s { body; catches; fin } -> (
      let env_body = exec_block ctx env body in
      let env_catches = List.map (fun b -> exec_block ctx env b) catches in
      let env' = List.fold_left Env.merge env_body env_catches in
      match fin with Some b -> exec_block ctx env' b | None -> env')
  | Ir.Foreach_bind { subject; subject_e; loc; value_lv; key_lv } -> (
      let t = tp.(subject) in
      let t =
        match t with
        | [] -> Env.clean
        | _ ->
            let step =
              { Trace.step_loc = loc;
                step_desc = "foreach over " ^ A.render_expr subject_e }
            in
            Env.map_origins (fun o -> Trace.add_step o step) t
      in
      let env = store_lv env value_lv t in
      match key_lv with Some k -> store_lv env k t | None -> env)
  | Ir.Return_t { src } ->
      let t = tp.(src) in
      let t_rec =
        if ctx.live == ctx.all_ids then t else Env.restrict t ctx.live
      in
      ctx.return_taints <- t_rec :: ctx.return_taints;
      env
  | Ir.Set_clean { names } ->
      List.fold_left (fun env v -> Env.set env v Env.clean) env names
  | Ir.Store_raw { name; src } -> Env.set env name tp.(src)
  | Ir.Unset_vars { names } -> List.fold_left Env.remove env names

and exec_if ctx env arms else_ : Env.t =
  let branch_outs =
    List.map
      (fun (ar : Ir.arm) ->
        (ar, exec_block ctx (apply_plan ctx env ar.Ir.ar_plan_true) ar.Ir.ar_body))
      arms
  in
  let fallthrough =
    List.fold_left
      (fun e (ar : Ir.arm) ->
        let e = apply_plan ctx e ar.Ir.ar_plan_false in
        match ar.Ir.ar_exit_guards with
        | Some keyss ->
            List.fold_left (fun e keys -> add_guard_to ctx e keys "exit") e keyss
        | None -> e)
      env arms
  in
  let else_env =
    match else_ with
    | Some (b, _) -> Some (exec_block ctx fallthrough b)
    | None -> None
  in
  let live =
    List.filter_map
      (fun ((ar : Ir.arm), env_out) ->
        if ar.Ir.ar_terminates then None else Some env_out)
      branch_outs
  in
  let live =
    match else_ with
    | Some (_, terminates) -> (
        match else_env with
        | Some e when not terminates -> e :: live
        | _ -> live)
    | None -> fallthrough :: live
  in
  match live with
  | [] -> fallthrough
  | first :: rest -> List.fold_left Env.merge first rest

and loop_fixpoint ctx env ~enter ~body : Env.t =
  let saved = ctx.live in
  let rec iterate env frozen live n =
    if live = [] || n = 0 then (env, frozen)
    else begin
      ctx.live <- live;
      let env' = Env.merge env (exec_block ctx (apply_plan ctx env enter) body) in
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
  List.fold_left
    (fun acc (id, e) -> if e == env_final then acc else Env.blend acc ~from:e id)
    env_final frozen

(* ------------------------------------------------------------------ *)
(* Entry points.                                                        *)

let run ~specs ~summaries ~file (body : Ir.body) :
    (int * Trace.candidate) list =
  let all_ids = List.init (Array.length specs) Fun.id in
  let ctx =
    {
      specs;
      all_ids;
      summaries;
      file;
      candidates = [];
      seen = Hashtbl.create 64;
      return_taints = [];
      param_sinks = [];
      live = all_ids;
      temps = Array.make (max 1 body.Ir.ntemps) Env.clean;
      blocks = body.Ir.blocks;
    }
  in
  ignore (exec_block ctx Env.empty body.Ir.entry);
  List.rev ctx.candidates

let analyze_file_toplevel (st : A.project_state) ~(units : A.file_unit list)
    (u : A.file_unit) : (int * Trace.candidate) list =
  let program =
    A.splice_includes ~units ~depth:0 ~visited:[ u.A.path ] u.A.program
  in
  let body =
    Lower.program ~specs:(A.state_specs st) ~lookup:(A.state_lookup st)
      program
  in
  run ~specs:(A.state_specs st) ~summaries:(A.state_summaries st)
    ~file:u.A.path body
