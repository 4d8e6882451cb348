(* One place that reads the engine's environment gates.  Each gate has
   a [default_*] reader (the raw environment lookup) and a resolver of
   the same name taking the optional command-line flag: an explicit
   flag always beats the environment, the environment beats the
   built-in default. *)

let default_jobs () =
  match Sys.getenv_opt "WAP_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let default_trace_out () =
  match Sys.getenv_opt "WAP_TRACE_OUT" with
  | Some "" | None -> None
  | Some path -> Some path

let jobs flag = match flag with Some n -> max 1 n | None -> default_jobs ()

let trace_out flag =
  match flag with Some path -> Some path | None -> default_trace_out ()
