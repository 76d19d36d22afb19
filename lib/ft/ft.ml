(* Run-time state of the crash-stop fault-tolerance subsystem.

   This module owns everything the coherence backends need to consult about
   failures, without depending on them: the per-processor crash queues
   derived from the validated {!Schedule}, the static down-window queries
   peers use to skip (and suspect) a dead replica, the per-processor
   checkpoint stacks, and the lost-page sets that force a rejoining node to
   refetch pages whose only copy it wiped. The protocol-side interpretation
   — quorum writes/reads, the wipe/restore sequence — lives in
   [Dsm_tmk.Recover]. *)

module Config = Dsm_sim.Config

type ckpt = {
  ck_id : int;
  ck_epoch : int;
  ck_vc : int array;  (* vector clock at the checkpoint barrier *)
  ck_known : (int, (int * int) list) Hashtbl.t;
      (* page -> sparse (writer, seq) known watermarks, ascending by writer;
         restoring [known] without [applied] is what forces a refetch of
         every page the node had heard of *)
}

type t = {
  nprocs : int;
  replicas : int;
  quorum : int;
  ckpt_every : int;
  mutable armed : bool;
      (* failures fire only while armed; the digest/verification read pass
         disarms the schedule so it observes the recovered state without
         injecting further crashes *)
  pending : Schedule.event list array;
      (* per proc, time-ordered; consumed as crashes execute *)
  windows : Schedule.event list array;
      (* per proc, static; never consumed — peers query down windows
         against these regardless of whether the crash has executed yet *)
  crashes : bool;  (* some window exists; fixed with [windows] *)
  lost : (int, unit) Hashtbl.t array;  (* per proc: pages wiped by a crash *)
  ckpts : ckpt list array;  (* per proc, newest first *)
  mutable next_ckpt_id : int;
  suspected : (int * int * int, unit) Hashtbl.t;
      (* (observer, peer, window index): suspicion is established (and its
         RTO-exhaustion cost paid) once per observer per down window *)
}

let initial_ckpt nprocs =
  { ck_id = 0; ck_epoch = 0; ck_vc = Array.make nprocs 0;
    ck_known = Hashtbl.create 16 }

let create (cfg : Config.t) =
  match Schedule.of_config cfg with
  | Error msg -> invalid_arg ("Ft.create: " ^ msg)
  | Ok events ->
      let nprocs = cfg.Config.nprocs in
      let per_proc =
        Array.init nprocs (fun p ->
            List.filter (fun e -> e.Schedule.proc = p) events)
      in
      {
        nprocs;
        replicas = cfg.Config.replicas;
        quorum = Schedule.quorum_of ~replicas:cfg.Config.replicas;
        ckpt_every = cfg.Config.ckpt_every;
        armed = true;
        pending = Array.copy per_proc;
        windows = per_proc;
        crashes = Array.exists (fun l -> l <> []) per_proc;
        lost = Array.init nprocs (fun _ -> Hashtbl.create 64);
        ckpts = Array.init nprocs (fun _ -> [ initial_ckpt nprocs ]);
        next_ckpt_id = 1;
        suspected = Hashtbl.create 16;
      }

let replicated t = t.replicas > 1
let has_crashes t = t.crashes
let active t = replicated t || has_crashes t
let disarm t = t.armed <- false

(* {1 Down windows} *)

(* Window index of [peer]'s schedule covering virtual time [at], if any.
   Indices are per peer and stable, so they key the suspicion cache. *)
let down_window t ~peer ~at =
  if not t.armed then None
  else
    let rec go i = function
      | [] -> None
      | e :: rest ->
          if at >= e.Schedule.at_us && at < e.Schedule.at_us +. e.Schedule.down_us
          then Some i
          else go (i + 1) rest
    in
    go 0 t.windows.(peer)

(* First-time suspicion of [peer]'s given down window by [observer]:
   returns true exactly once per (observer, peer, window), so the caller
   charges the RTO-exhaustion detection cost once. *)
let suspect_once t ~observer ~peer ~window =
  let key = (observer, peer, window) in
  if Hashtbl.mem t.suspected key then false
  else begin
    Hashtbl.replace t.suspected key ();
    true
  end

(* Next crash of [proc] due at or before virtual time [now]; consumed. *)
let take_crash t ~proc ~now =
  if not t.armed then None
  else
    match t.pending.(proc) with
    | e :: rest when e.Schedule.at_us <= now ->
        t.pending.(proc) <- rest;
        Some e
    | _ -> None

(* {1 Lost pages} *)

let mark_lost t proc page = Hashtbl.replace t.lost.(proc) page ()
let is_lost t proc page = Hashtbl.mem t.lost.(proc) page
let clear_lost t proc page = Hashtbl.remove t.lost.(proc) page

(* {1 Checkpoints} *)

let ckpt_due t ~epoch =
  t.ckpt_every > 0 && epoch > 0 && epoch mod t.ckpt_every = 0

let push_ckpt t proc ~epoch ~vc ~known =
  let id = t.next_ckpt_id in
  t.next_ckpt_id <- id + 1;
  let ck = { ck_id = id; ck_epoch = epoch; ck_vc = vc; ck_known = known } in
  t.ckpts.(proc) <- ck :: t.ckpts.(proc);
  ck

let latest_ckpt t proc =
  match t.ckpts.(proc) with ck :: _ -> ck | [] -> initial_ckpt t.nprocs
