(* Deterministic cooperative scheduler for simulated processors: one
   round-robin pass resumes every runnable fiber in processor order,
   until all have finished or a full pass makes no progress. *)

exception Deadlock of string

exception Proc_failure of int * exn
(* An exception escaped one simulated processor's fiber; carries the
   processor id and the original exception. The scheduler discontinues the
   surviving fibers before re-raising, so no continuation is leaked. *)

let () =
  Printexc.register_printer (function
    | Proc_failure (p, e) ->
        Some (Printf.sprintf "Proc_failure (p%d, %s)" p (Printexc.to_string e))
    | _ -> None)

type _ Effect.t += Block : (unit -> bool) -> unit Effect.t

let block ~until = Effect.perform (Block until)

let yield () =
  (* Blocking with an immediately-true predicate re-enters the scheduler:
     every other runnable fiber gets its turn before this one resumes. *)
  Effect.perform (Block (fun () -> true))

type cell =
  | Not_started of (unit -> unit)
  | Waiting of { pred : unit -> bool; k : (unit, unit) Effect.Deep.continuation }
  | Running
  | Finished

let handler cells p =
  {
    Effect.Deep.retc = (fun () -> cells.(p) <- Finished);
    exnc =
      (fun e ->
        (* the raising fiber is done; mark it so the cleanup pass below
           only discontinues the genuinely suspended siblings *)
        cells.(p) <- Finished;
        match e with
        | Proc_failure _ -> raise e
        | e -> raise (Proc_failure (p, e)));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Block pred ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                cells.(p) <- Waiting { pred; k })
        | _ -> None);
  }

(* Unwind the suspended fibers (running their cleanup handlers) so the
   scheduler never leaks a continuation when one processor fails. *)
let discontinue_all cells =
  for q = 0 to Array.length cells - 1 do
    match cells.(q) with
    | Waiting { k; _ } ->
        cells.(q) <- Finished;
        (try Effect.Deep.discontinue k Exit with _ -> ())
    | Not_started _ | Running | Finished -> ()
  done

let blocked_list cells =
  Array.to_seq cells
  |> Seq.mapi (fun p c -> (p, c))
  |> Seq.filter_map (fun (p, c) ->
         match c with
         | Waiting _ -> Some (string_of_int p)
         | Not_started _ | Running | Finished -> None)
  |> List.of_seq |> String.concat ","

let deadlock cells =
  Deadlock (Printf.sprintf "fibers blocked: [%s]" (blocked_list cells))

let run ~nprocs main =
  let cells = Array.init nprocs (fun p -> Not_started (fun () -> main p)) in
  let rec loop () =
    let progress = ref false in
    let unfinished = ref false in
    for p = 0 to nprocs - 1 do
      match cells.(p) with
      | Not_started f ->
          progress := true;
          cells.(p) <- Running;
          Effect.Deep.match_with f () (handler cells p)
      | Waiting { pred; k } ->
          if pred () then begin
            progress := true;
            cells.(p) <- Running;
            Effect.Deep.continue k ()
          end
      | Running -> ()
      | Finished -> ()
    done;
    Array.iter (function Finished -> () | _ -> unfinished := true) cells;
    if !unfinished then
      if !progress then loop () else raise (deadlock cells)
  in
  Dsm_prof.Prof.enter Dsm_prof.Prof.Engine;
  Fun.protect
    ~finally:(fun () -> Dsm_prof.Prof.exit Dsm_prof.Prof.Engine)
    (fun () ->
      try loop ()
      with e ->
        discontinue_all cells;
        raise e)
