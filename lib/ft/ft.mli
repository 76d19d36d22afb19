(** Run-time state of the crash-stop fault-tolerance subsystem: per-node
    crash queues, static down-window queries, suspicion caching, lost-page
    sets and checkpoint stacks. Consumed by [Dsm_tmk.Recover]; owns no
    protocol logic of its own. *)

type ckpt = {
  ck_id : int;
  ck_epoch : int;  (** barrier epoch the checkpoint was taken at *)
  ck_vc : int array;
  ck_known : (int, (int * int) list) Hashtbl.t;
      (** page -> per-writer known watermark at the checkpoint *)
}

type t = {
  nprocs : int;
  replicas : int;
  quorum : int;  (** ⌈(replicas+1)/2⌉ *)
  ckpt_every : int;
  mutable armed : bool;
  pending : Schedule.event list array;
  windows : Schedule.event list array;
  crashes : bool;  (** some processor has a window; fixed at {!create} *)
  lost : (int, unit) Hashtbl.t array;
  ckpts : ckpt list array;
  mutable next_ckpt_id : int;
  suspected : (int * int * int, unit) Hashtbl.t;
}

val create : Dsm_sim.Config.t -> t
(** Build from the configuration's [replicas]/[ckpt_every]/[crash] fields.
    @raise Invalid_argument when {!Schedule.validate} rejects them. *)

val replicated : t -> bool
(** [replicas > 1]: homes are replica groups, flushes are quorum writes. *)

val has_crashes : t -> bool
(** Some processor has a crash window: computed once by {!create}, so
    the barrier-arrival hook tests a field. *)

val active : t -> bool
(** Replicated or crash-scheduled; when false every hook is a no-op and the
    runtime stays bit-identical to the pre-fault-tolerance code. *)

val disarm : t -> unit
(** Stop injecting crashes (the digest/verification read pass observes the
    recovered state without new failures). Replication stays in force. *)

val down_window : t -> peer:int -> at:float -> int option
(** Index of [peer]'s static down window covering virtual time [at]. *)

val suspect_once : t -> observer:int -> peer:int -> window:int -> bool
(** True exactly once per (observer, peer, window): the caller pays the
    RTO-exhaustion detection cost and emits the [Suspect] event. *)

val take_crash : t -> proc:int -> now:float -> Schedule.event option
(** Next crash of [proc] due at or before [now], consumed once. *)

val mark_lost : t -> int -> int -> unit
val is_lost : t -> int -> int -> bool
val clear_lost : t -> int -> int -> unit

val ckpt_due : t -> epoch:int -> bool

val push_ckpt :
  t -> int -> epoch:int -> vc:int array ->
  known:(int, (int * int) list) Hashtbl.t -> ckpt

val latest_ckpt : t -> int -> ckpt
(** Newest checkpoint of the processor; the implicit empty initial
    checkpoint when none has been taken. *)
