(* Per-phase trace summaries.

   A traced run decomposes into phases delimited by barrier departures:
   phase [k] covers, for each processor, the events between its [k]'th and
   [k+1]'th departures (phase 0 starts at program start). Attribution is
   per-processor — the simulator interleaves processors inside one global
   event order, so a fixed global split would misfile events of processors
   that have not crossed the barrier yet. *)

module Stats = Dsm_sim.Stats
module E = Dsm_trace.Event

type phase = {
  epoch : int;
  events : int;
  end_time : float;  (* max virtual time of any event in the phase *)
  counts : Stats.t;
}

(* The events that each add one to a counter the trace reproduces. A
   counter whose events count something else has no entry: [pushes]
   counts calls where [Push_send] is per destination, [home_flushes]
   counts messages per home where [Home_flush] is per page,
   [home_fetches] skips the [Quorum_read]s of a restart's repair, and the
   byte counters charge sizes the events do not carry. *)
let traced : (Stats.counter * (E.kind -> bool)) list =
  List.map
    (fun (name, bumps) -> (Stats.find name, bumps))
    [
      ("segv", function E.Page_fault _ -> true | _ -> false);
      ("twins", function E.Twin _ -> true | _ -> false);
      ( "diffs_created",
        function E.Diff_create { write_all; _ } -> not write_all | _ -> false );
      ("diffs_applied", function E.Diff_apply _ -> true | _ -> false);
      ("lock_acquires", function E.Lock_grant _ -> true | _ -> false);
      ("barriers", function E.Barrier_arrive _ -> true | _ -> false);
      ("validates", function E.Validate _ -> true | _ -> false);
      ("broadcasts", function E.Broadcast _ -> true | _ -> false);
      ("retransmits", function E.Retransmit _ -> true | _ -> false);
      ("timeouts", function E.Timeout_fire _ -> true | _ -> false);
      ("dropped", function E.Msg_drop _ -> true | _ -> false);
      ("duplicates", function E.Msg_dup _ -> true | _ -> false);
      ("invals", function E.Inval_send _ -> true | _ -> false);
      ("downgrades", function E.Downgrade _ -> true | _ -> false);
      ("proto_switches", function E.Proto_switch _ -> true | _ -> false);
      ("obj_skips", function E.Obj_skip _ -> true | _ -> false);
      ("crashes", function E.Crash _ -> true | _ -> false);
      ("restarts", function E.Restart _ -> true | _ -> false);
      ("suspects", function E.Suspect _ -> true | _ -> false);
      ("quorum_writes", function E.Quorum_write _ -> true | _ -> false);
      ("quorum_reads", function E.Quorum_read _ -> true | _ -> false);
      ("ckpts", function E.Ckpt _ -> true | _ -> false);
    ]

let traced_counters = List.map fst traced

let of_events events =
  let phases : (int, phase ref) Hashtbl.t = Hashtbl.create 16 in
  let depart_count : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let phase_of epoch =
    match Hashtbl.find_opt phases epoch with
    | Some r -> r
    | None ->
        let r =
          ref { epoch; events = 0; end_time = 0.0; counts = Stats.create () }
        in
        Hashtbl.replace phases epoch r;
        r
  in
  List.iter
    (fun (e : E.t) ->
      let k = Option.value ~default:0 (Hashtbl.find_opt depart_count e.proc) in
      let r = phase_of k in
      r :=
        {
          !r with
          events = !r.events + 1;
          end_time = Float.max !r.end_time e.time;
        };
      List.iter
        (fun ((c : Stats.counter), bumps) ->
          if bumps e.kind then c.set !r.counts (c.get !r.counts + 1))
        traced;
      match e.kind with
      | E.Barrier_depart _ -> Hashtbl.replace depart_count e.proc (k + 1)
      | _ -> ())
    events;
  Hashtbl.fold (fun _ r acc -> !r :: acc) phases []
  |> List.sort (fun a b -> compare a.epoch b.epoch)

(* One column per counter that is nonzero in some phase, headed by its
   [Stats] name and as wide as the wider of name and values. *)
let pp ppf phases =
  let width (c : Stats.counter) =
    List.fold_left
      (fun w p -> max w (String.length (string_of_int (c.get p.counts))))
      (String.length c.name) phases
  in
  let cols =
    List.filter_map
      (fun (c : Stats.counter) ->
        if List.exists (fun p -> c.get p.counts <> 0) phases then
          Some (c, width c)
        else None)
      Stats.counters
  in
  Format.fprintf ppf "@[<v>%6s %8s %10s" "phase" "events" "end(us)";
  List.iter (fun (c, w) -> Format.fprintf ppf " %*s" w c.Stats.name) cols;
  List.iter
    (fun p ->
      Format.fprintf ppf "@,%6d %8d %10.0f" p.epoch p.events p.end_time;
      List.iter
        (fun (c, w) -> Format.fprintf ppf " %*d" w (c.Stats.get p.counts))
        cols)
    phases;
  Format.fprintf ppf "@]"
