(** Domain-based worker pool over a mutex-protected deque. *)

(* Queue wait is the time from pool start (every item is enqueued up
   front) to the moment a worker dequeues the item, recorded only when
   workers share a queue: at [jobs = 1] there is none, and the time
   since pool start would just be the run time of the earlier items.
   Run time is the application of [f] itself.  Striped atomics, so
   recording from every worker domain is lock-free.  The handles are
   created eagerly: a [Lazy.t] first forced by two worker domains at
   once raises [CamlinternalLazy.Undefined]. *)
let m_queue_wait = Wap_obs.Metrics.histogram "engine.pool.queue_wait_seconds"
let m_task_run = Wap_obs.Metrics.histogram "engine.pool.task_run_seconds"
let m_tasks = Wap_obs.Metrics.counter "engine.pool.tasks"

(* ------------------------------------------------------------------ *)
(* Mutex-protected deque of work-item indices.                         *)

type deque = {
  mutable front : int list;
  mutable back : int list;  (** reversed *)
  lock : Mutex.t;
}

let deque_of_indices n =
  { front = List.init n Fun.id; back = []; lock = Mutex.create () }

let pop_front (d : deque) : int option =
  Mutex.lock d.lock;
  let item =
    match d.front with
    | x :: rest ->
        d.front <- rest;
        Some x
    | [] -> (
        match List.rev d.back with
        | x :: rest ->
            d.front <- rest;
            d.back <- [];
            Some x
        | [] -> None)
  in
  Mutex.unlock d.lock;
  item

(* ------------------------------------------------------------------ *)
(* Parallel map.                                                       *)

let map ?(jobs = Config.default_jobs ()) (f : 'a -> 'b) (xs : 'a array) :
    'b array =
  let n = Array.length xs in
  let jobs = max 1 (min jobs n) in
  let t_start = Wap_obs.Clock.now_ns () in
  let timed_apply x =
    let t0 = Wap_obs.Clock.now_ns () in
    if jobs > 1 then
      Wap_obs.Metrics.observe m_queue_wait
        (Wap_obs.Clock.ns_to_s (t0 - t_start));
    let y = f x in
    Wap_obs.Metrics.observe m_task_run
      (Wap_obs.Clock.ns_to_s (Wap_obs.Clock.elapsed_ns t0));
    Wap_obs.Metrics.incr m_tasks;
    y
  in
  if jobs <= 1 then Array.map timed_apply xs
  else begin
    let results : 'b option array = Array.make n None in
    (* first failure by input index, so the escaping exception is
       independent of scheduling *)
    let failure : (int * exn * Printexc.raw_backtrace) option Atomic.t =
      Atomic.make None
    in
    let record_failure i exn bt =
      let rec retry () =
        let cur = Atomic.get failure in
        let better = match cur with None -> true | Some (j, _, _) -> i < j in
        if better && not (Atomic.compare_and_set failure cur (Some (i, exn, bt)))
        then retry ()
      in
      retry ()
    in
    let tasks = deque_of_indices n in
    (* every task runs even after a failure, so the failure with the
       lowest input index is found deterministically *)
    let rec worker () =
      match pop_front tasks with
      | None -> ()
      | Some i ->
          (match timed_apply xs.(i) with
          | y -> results.(i) <- Some y
          | exception exn ->
              record_failure i exn (Printexc.get_raw_backtrace ()));
          worker ()
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    (match Atomic.get failure with
    | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ());
    Array.map (function Some y -> y | None -> assert false) results
  end

let map_list ?jobs f xs = Array.to_list (map ?jobs f (Array.of_list xs))
