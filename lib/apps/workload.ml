(* First-class workload interface: the contract every application in
   the registry implements — the six scientific kernels of the paper and
   the transaction-style KV cache alike.

   The old informal [App_common.APP] signature conflated everything into
   one [params] record. [S] splits it:

   - [size] fixes the problem geometry (arrays, key space, session
     count) and is selected by name from {!S.sizes} ("large"/"small",
     possibly more);
   - [behavior] carries the run-shaping knobs (operation mix, skew,
     session override) and is refined from {!S.default_behavior} with
     {!S.with_knob}, a string key/value interface so drivers (dsm_run's
     [--mix]/[--skew]/[--sessions]) need no per-workload argument
     plumbing. Workloads without knobs (the kernels) reject every key
     with {!no_knobs}'s standard error format.

   Results stay {!App_common.result}, which is extensible through
   {!App_common.make_result} (op latencies and counts ride along without
   touching the kernels). *)

module type S = sig
  val name : string

  type size
  type behavior

  val sizes : (string * size) list
  (** Named problem sizes; every workload provides at least ["large"]
      and ["small"]. *)

  val size_name : size -> string
  val seq_time_us : size -> float
  (** Virtual uniprocessor execution time (Table 1 baseline). *)

  val default_behavior : behavior

  val knob_doc : (string * string) list
  (** [(key, one-line description)] of every accepted behavior knob. *)

  val with_knob :
    behavior -> key:string -> value:string -> (behavior, string) result
  (** Refine a behavior with one string-valued knob. Unknown keys and
      out-of-range values return [Error] in the standard
      field/value/range format ({!Dsm_net.Plan.field_error}). *)

  val levels : App_common.opt_level list
  (** The optimization levels applicable to this workload, as in
      Figure 6 of the paper. *)

  val tmk :
    ?trace:Dsm_trace.Sink.t ->
    ?digest:bool ->
    ?plan:Dsm_tmk.Proto_plan.t ->
    ?inspect:(Dsm_tmk.Tmk.system -> unit) ->
    Dsm_sim.Config.t ->
    size:size ->
    behavior:behavior ->
    level:App_common.opt_level ->
    async:bool ->
    App_common.result
  (** Run on the DSM run-time. [trace] records the compute run's
      protocol events (the untimed verification pass stays untraced);
      [digest] (default false) adds a protocol-level read pass over the
      final shared state; [plan] seeds the adaptive/hlrc backend's
      per-page protocol state before the first access
      ({!Dsm_tmk.Tmk.make}); [inspect] is handed the final system state
      after the verification and digest passes (tests of the run-time's
      own state). *)

  val pvm :
    Dsm_sim.Config.t -> size:size -> behavior:behavior -> App_common.result
  (** The hand-coded message-passing baseline. *)

  val xhpf :
    (Dsm_sim.Config.t -> size:size -> behavior:behavior -> App_common.result)
    option
  (** [None] when XHPF cannot parallelize the workload (IS's indirect
      accesses; the KV cache's data-dependent control flow). *)
end

(* Implementations bind [~size] to a plain variable and destructure it in
   the body of [tmk]: a record pattern after an optional argument with a
   default makes the compiler split the function, and every call through
   [S] then allocates the intermediate closures. *)

(* {1 Helpers for implementations} *)

let no_knobs ~workload () ~key ~value:_ =
  Error
    (Printf.sprintf "unknown knob for %s: %s (this workload has none)"
       workload key)

(* Shared by drivers: apply a [(key, value)] list left to right. *)
let apply_knobs (type b) ~(with_knob :
                            b -> key:string -> value:string -> (b, string) result)
    ~(default : b) knobs =
  List.fold_left
    (fun acc (key, value) ->
      match acc with
      | Error _ as e -> e
      | Ok b -> with_knob b ~key ~value)
    (Ok default) knobs
