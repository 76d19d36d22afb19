(** Per-phase summaries of a protocol trace.

    A traced run decomposes into phases delimited by barrier departures:
    phase [k] covers, for each processor, its events between its [k]'th and
    [k+1]'th barrier departures (phase 0 starts at program start, and the
    run's trailing exit barrier ends the last phase). *)

type phase = {
  epoch : int;
  events : int;
  end_time : float;  (** max virtual time of any event in the phase, us *)
  counts : Dsm_sim.Stats.t;
      (** the phase's share of each {!traced_counters} counter; the
          others stay zero *)
}

val traced_counters : Dsm_sim.Stats.counter list
(** The counters the trace reproduces: each one summed over the phases
    equals its {!Dsm_sim.Stats.total} over the processors. *)

val of_events : Dsm_trace.Event.t list -> phase list
(** Aggregate an event list (in emission order, e.g. from
    {!Dsm_trace.Sink.events}) into per-phase summaries, sorted by epoch. *)

val pp : Format.formatter -> phase list -> unit
(** Render as an aligned table, one row per phase and one column per
    counter that is nonzero in some phase, headed by its
    {!Dsm_sim.Stats} name. *)
