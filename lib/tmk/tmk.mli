(** TreadMarks-style lazy-release-consistency software DSM, with the
    augmented compiler interface of the paper (Validate, Validate_w_sync,
    Push), and four coherence backends ([Config.backend]): the homeless
    LRC protocol of the paper; home-based LRC (each page has a home
    processor; releasers flush diffs to it eagerly and misses fetch one
    full page from it); a sequentially consistent directory-based
    single-writer invalidate protocol; and an adaptive backend that
    switches each page between the three online.

    Typical use:
    {[
      let sys = Tmk.make (Dsm_sim.Config.default) in
      let b = Tmk.Alloc.array sys "b" Tmk.F64 ~dims:[ rows; cols ] in
      Tmk.run sys (fun t ->
          let p = Tmk.pid t in
          ...
          Tmk.Shm.F64_2.set t b i j v;
          Tmk.barrier t);
      Format.printf "parallel time: %.0f us@." (Tmk.elapsed sys)
    ]} *)

type system = Types.system
type t = Types.t
(** Per-processor handle, passed to the program run on each processor. *)

type access = Types.access =
  | Read
  | Write
  | Read_write
  | Write_all
  | Read_write_all
      (** Access types of the augmented interface (Figure 3 of the paper).
          The first three preserve consistency; the [_all] types disable it
          and require exact compiler analysis. *)

val make : ?plan:Proto_plan.t -> Dsm_sim.Config.t -> system
(** Build a system for [Config.nprocs] processors, driven by the coherence
    backend selected by [Config.backend] (with homes assigned per
    [Config.home_policy] when home-based).

    [plan] is a static protocol-placement plan ({!Proto_plan}, the
    [dsm_run --plan] artifact): its exact-confidence directives seed the
    adaptive backend's initial per-page classification (and the matching
    invalidate-directory / home-map state) — or, under the plain hlrc
    backend, just the home assignments — at the start of the first
    {!run}, before any processor executes. Each applied directive emits
    a [Plan_applied] trace event. Raises [Invalid_argument] (in the
    {!Dsm_net.Plan.field_error} format) when the plan's [nprocs] or
    [page_size] disagree with [cfg]. *)

val backend_name : system -> string
(** Name of the selected backend: ["lrc"], ["hlrc"], ["inval"] or
    ["adaptive"]. *)

val run : ?trace:Dsm_trace.Sink.t -> system -> (t -> unit) -> unit
(** Execute the program on every simulated processor. [trace] collects
    typed protocol events (page faults, twins, diff creations/applications,
    write notices, synchronization, Validate/Push) for the duration of this
    run; tracing never charges simulated time, so clocks, statistics and
    shared memory are bit-identical with and without it. The trace can be
    replayed through {!Dsm_trace.Check} or serialized with
    {!Dsm_trace.Sink.write_jsonl}. *)

(** {1 Allocation} (before {!run}) *)

(** Shared-memory allocation. [array] is the general entry point; [objs]
    additionally declares sub-page granularity, the remedy for false
    sharing when many small independent objects pack into one page. *)
module Alloc : sig
  type granularity =
    | Page  (** classic page-granular coherence (the default elsewhere) *)
    | Object
        (** per-object staleness tracking: a validate of objects disjoint
            from every stale slot skips the fetch entirely *)

  val array : system -> string -> dims:int list -> Dsm_rsd.Section.array_info
  (** [array sys name ~dims] allocates a shared array of 8-byte elements
      with the given extents (column-major; the first dimension is
      contiguous). Access it through the {!Shm} view matching its rank
      and element type. *)

  val objs :
    system ->
    ?granularity:granularity ->
    string ->
    obj_size:int ->
    count:int ->
    Dsm_rsd.Section.array_info
  (** [objs sys name ~obj_size ~count] allocates [count] packed fixed-size
      objects of [obj_size] bytes, page-aligned; [obj_size] must be a
      multiple of 8 dividing the page size, so an object never straddles
      pages. Under [~granularity:Object] (the default) the run-time tracks
      staleness per object slot on top of the page watermarks, and
      validates of current objects skip fetching pages whose staleness is
      pure false sharing; [~granularity:Page] allocates identically but
      keeps page-granular coherence — the experiment control. Raises
      [Invalid_argument] (in the {!Dsm_net.Plan.field_error} format) on a
      bad [obj_size] or [count]. The result is a rank-1 array
      of [count * obj_size / 8] words; address object [i]'s word [w] at
      [base + i*obj_size + 8*w]. *)
end

(** {1 Per-processor operations} *)

val pid : t -> int
val nprocs : t -> int

val charge : t -> float -> unit
(** Account [us] microseconds of local computation. *)

val barrier : t -> unit
val lock_acquire : t -> int -> unit
val lock_release : t -> int -> unit

val validate :
  t -> ?async:bool -> Dsm_rsd.Section.t list -> access -> unit
(** Inform the run-time of upcoming accesses: fetches and applies the
    missing diffs for the sections (aggregated, one request per writer) and
    sets protections per the access type. [async] sends the fetch requests
    and lets the page-fault handler complete the work (Section 3.2.3). *)

val validate_w_sync :
  t -> ?async:bool -> Dsm_rsd.Section.t list -> access -> unit
(** Like {!validate}, but piggy-backs the diff request on the next
    synchronization operation (lock acquire or barrier). *)

val push :
  t ->
  read_sections:Dsm_rsd.Section.t list array ->
  write_sections:Dsm_rsd.Section.t list array ->
  unit
(** Replace a barrier: point-to-point exchange of
    [w_section(me) inter r_section(i)] (Figure 3). Synchronous only, as in
    the paper's implementation. *)

(** {1 Results} *)

val elapsed : system -> float
(** Parallel execution time so far (max over processor clocks), us. *)

val time : t -> float
val stats : system -> Dsm_sim.Stats.t array
val total_stats : system -> Dsm_sim.Stats.t

val digest : system -> string
(** Hex digest of the contents of every allocated array, observed through
    the protocol (an extra {!run} in which processor 0 reads all of shared
    memory). Two backends implementing the same memory model produce equal
    digests for the same program. Capture timing/statistics results before
    calling this: the digest run advances the simulated clocks. *)

val homes : system -> (int * int) list
(** The page-to-home assignments the run made (hlrc backend), sorted by
    page; empty for backends that assign none. Capture before {!digest} —
    the digest run's read pass can itself assign first-touch homes. *)

val adapt_classes : system -> (int * string * int) list
(** Final per-page classification of the adaptive backend, sorted by
    page: (page, protocol name, designated owner) — the home under
    "hlrc", the holder under "inval", -1 under "lrc". Pages the run
    never touched or seeded are absent (they stayed under the LRC
    default). Capture before {!digest}, whose read pass updates the
    sharing observations. *)
