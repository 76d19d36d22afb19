(* The unreliable-transport subsystem and its reliable-delivery layer.

   Covers: the deterministic fault PRNG, plan validation, the bit-identical
   zero-fault pass-through (scripted transport sequences and full
   applications), reliable-delivery accounting under forced loss, per-flow
   in-order delivery under jitter, all six applications under all four
   backends at 8 processors under drop+dup+jitter (termination, exact
   results, clean checker replay, trace-identical reproduction from the
   same (config, seed)), total loss proving every message crosses the
   reliable layer, JSONL round-tripping of the new event kinds, and
   checker rejection of corrupted reliable-delivery traces. *)

module Config = Dsm_sim.Config
module Cluster = Dsm_sim.Cluster
module Stats = Dsm_sim.Stats
module Net = Dsm_net.Net
module Plan = Dsm_net.Plan
module Event = Dsm_trace.Event
module Sink = Dsm_trace.Sink
module Check = Dsm_trace.Check
open Dsm_apps.App_common

let cfg_n nprocs = { Config.default with Config.nprocs = nprocs }

(* A faulty-but-recoverable network: used by every fault test below. *)
let faulty_cfg nprocs =
  {
    Config.default with
    Config.nprocs = nprocs;
    net_drop = 0.05;
    net_dup = 0.03;
    net_jitter_us = 50.0;
    net_seed = 7;
  }

(* {1 PRNG} *)

let test_u01 () =
  for ctr = 0 to 999 do
    let u = Net.u01 ~seed:42 ctr in
    Alcotest.(check bool) "in [0,1)" true (u >= 0.0 && u < 1.0)
  done;
  let a = List.init 100 (Net.u01 ~seed:1)
  and b = List.init 100 (Net.u01 ~seed:1)
  and c = List.init 100 (Net.u01 ~seed:2) in
  Alcotest.(check bool) "same seed, same stream" true (a = b);
  Alcotest.(check bool) "different seed, different stream" true (a <> c);
  (* crude uniformity: the mean of a long stream is near 1/2 *)
  let n = 10_000 in
  let sum = ref 0.0 in
  for ctr = 0 to n - 1 do
    sum := !sum +. Net.u01 ~seed:5 ctr
  done;
  Alcotest.(check bool) "mean near 0.5" true
    (abs_float ((!sum /. float_of_int n) -. 0.5) < 0.02)

(* {1 Plan validation} *)

let test_plan_validate () =
  let ok p = match Plan.validate p with Ok _ -> true | Error _ -> false in
  Alcotest.(check bool) "default valid" true (ok Plan.default);
  Alcotest.(check bool) "full fault config valid" true
    (ok (Plan.of_config (faulty_cfg 8)));
  let d = Plan.default in
  Alcotest.(check bool) "drop > 1 rejected" false (ok { d with Plan.drop = 1.5 });
  Alcotest.(check bool) "drop < 0 rejected" false
    (ok { d with Plan.drop = -0.1 });
  Alcotest.(check bool) "drop nan rejected" false
    (ok { d with Plan.drop = Float.nan });
  Alcotest.(check bool) "dup > 1 rejected" false (ok { d with Plan.dup = 2.0 });
  Alcotest.(check bool) "negative jitter rejected" false
    (ok { d with Plan.jitter_us = -1.0 });
  Alcotest.(check bool) "negative seed rejected" false
    (ok { d with Plan.seed = -1 });
  Alcotest.(check bool) "zero rto rejected" false
    (ok { d with Plan.rto_us = 0.0 });
  Alcotest.(check bool) "zero attempts rejected" false
    (ok { d with Plan.max_attempts = 0 });
  Alcotest.check_raises "Net.create rejects invalid plan"
    (Invalid_argument "Net.create: drop: 2 outside accepted range [0, 1]")
    (fun () ->
      ignore
        (Net.create ~plan:{ d with Plan.drop = 2.0 }
           (Cluster.create (cfg_n 2))));
  Alcotest.(check bool) "seed/rto do not disable passthrough" true
    (Plan.is_passthrough { d with Plan.seed = 99; Plan.rto_us = 5.0 });
  Alcotest.(check bool) "jitter alone disables passthrough" false
    (Plan.is_passthrough { d with Plan.jitter_us = 1.0 })

(* {1 Zero-fault pass-through} *)

(* Run the same scripted transport sequence over a raw cluster and over a
   fault-free Net: clocks, statistics and return values must be
   bit-identical, and the Net must emit no events. *)
let test_passthrough_scripted () =
  let script send rpc =
    let r1 = send ~src:0 ~dst:1 ~bytes:4096 in
    rpc ~src:2 ~dst:1 ~req_bytes:16 ~resp_bytes:4096 ~service:25.0;
    rpc ~src:1 ~dst:0 ~req_bytes:0 ~resp_bytes:0 ~service:0.0;
    let r2 = send ~src:0 ~dst:1 ~bytes:12 in
    (r1, r2)
  in
  let raw = Cluster.create (cfg_n 8) in
  let raw_r = script (Cluster.send raw) (Cluster.rpc raw) in
  let c = Cluster.create (cfg_n 8) in
  let net = Net.create c in
  Alcotest.(check bool) "default plan is passthrough" true 
    (Plan.is_passthrough (Net.plan net));
  let sink = Sink.create ~nprocs:8 () in
  Net.set_trace net (Some sink);
  let net_r = script (Net.send net) (Net.rpc net) in
  Alcotest.(check bool) "return values identical" true (raw_r = net_r);
  Alcotest.(check bool) "clocks identical" true
    (Array.to_list raw.Cluster.clocks = Array.to_list c.Cluster.clocks);
  Alcotest.(check bool) "stats identical" true
    (Array.to_list raw.Cluster.stats = Array.to_list c.Cluster.stats);
  Alcotest.(check int) "no transport events emitted" 0 (Sink.emitted sink);
  let s = Stats.total c.Cluster.stats in
  Alcotest.(check int) "no retransmits" 0 s.Stats.retransmits;
  Alcotest.(check int) "no drops" 0 s.Stats.dropped

(* Application-level pass-through: with all fault rates zero the run must
   be independent of the net seed (no PRNG draw ever happens) and record
   zero fault statistics. *)
let test_passthrough_app () =
  let prm = { Dsm_apps.Jacobi.small with m = 128; iters = 3 } in
  let run cfg =
    Dsm_apps.Jacobi.tmk cfg ~size:prm ~behavior:() ~level:Sync_merge ~async:true
  in
  let a = run (cfg_n 4)
  and b = run { (cfg_n 4) with Config.net_seed = 12345 } in
  Alcotest.(check (float 0.0)) "times identical" a.time_us b.time_us;
  Alcotest.(check bool) "stats identical" true (a.stats = b.stats);
  Alcotest.(check (float 0.0)) "results identical" a.max_err b.max_err;
  Alcotest.(check int) "no retransmits" 0 a.stats.Stats.retransmits;
  Alcotest.(check int) "no timeouts" 0 a.stats.Stats.timeouts;
  Alcotest.(check int) "no drops" 0 a.stats.Stats.dropped;
  Alcotest.(check int) "no duplicates" 0 a.stats.Stats.duplicates

(* {1 Reliable-delivery accounting} *)

let test_forced_loss_recovered () =
  (* drop = 1.0: every attempt up to the cap is lost and the forced final
     attempt delivers. The leg must terminate with max_attempts - 1
     drops/timeouts/retransmits and still return a finite arrival. *)
  let c = Cluster.create (cfg_n 2) in
  let plan = { Plan.default with Plan.drop = 1.0 } in
  let net = Net.create ~plan c in
  let deliver = Net.send net ~src:0 ~dst:1 ~bytes:100 in
  let s = c.Cluster.stats.(0) in
  let expect = plan.Plan.max_attempts - 1 in
  Alcotest.(check int) "drops" expect s.Stats.dropped;
  Alcotest.(check int) "timeouts" expect s.Stats.timeouts;
  Alcotest.(check int) "retransmits" expect s.Stats.retransmits;
  Alcotest.(check bool) "delivery time finite" true (Float.is_finite deliver);
  (* exponential backoff: the stalls alone sum to rto * (2^15 - 1) *)
  Alcotest.(check bool) "backoff delay charged" true
    (deliver > plan.Plan.rto_us *. (Float.pow 2.0 15.0 -. 1.0));
  (* the receiver acked: one 8-byte message on its statistics *)
  Alcotest.(check int) "ack counted at receiver" 1
    c.Cluster.stats.(1).Stats.messages

let test_faulty_send_costs_more () =
  let elapsed cfg =
    let c = Cluster.create cfg in
    let net = Net.create c in
    for i = 0 to 99 do
      ignore (Net.send net ~src:0 ~dst:1 ~bytes:(100 + i))
    done;
    (Cluster.time c 0, Stats.total c.Cluster.stats)
  in
  let t0, s0 = elapsed (cfg_n 2)
  and t1, s1 = elapsed { (cfg_n 2) with Config.net_drop = 0.2; net_seed = 3 } in
  Alcotest.(check bool) "faults slow the sender" true (t1 > t0);
  Alcotest.(check bool) "some messages dropped" true (s1.Stats.dropped > 0);
  Alcotest.(check int) "fault-free run drops nothing" 0 s0.Stats.dropped;
  Alcotest.(check int) "every drop timed out" s1.Stats.dropped s1.Stats.timeouts;
  Alcotest.(check int) "every timeout retransmitted" s1.Stats.timeouts
    s1.Stats.retransmits

let test_inorder_delivery () =
  (* heavy jitter reorders raw arrivals; the resequencing floor must still
     deliver each flow in order (non-decreasing delivery times) *)
  let c = Cluster.create { (cfg_n 2) with Config.net_jitter_us = 5000.0 } in
  let net = Net.create c in
  let last = ref neg_infinity in
  for _ = 0 to 199 do
    let d = Net.send net ~src:0 ~dst:1 ~bytes:64 in
    Alcotest.(check bool) "in-order per flow" true (d >= !last);
    last := d
  done

(* {1 All six applications under faults} *)

let last_level l = List.fold_left (fun _ x -> x) (List.hd l) l

(* The six kernels at test sizes, at any level and on the message-passing
   baseline. *)
type kernel = {
  levels : opt_level list;
  tmk :
    Config.t -> ?trace:Sink.t -> level:opt_level -> async:bool -> unit -> result;
  pvm : Config.t -> result;
}

let kernels : (string * kernel) list =
  let kernel (type p)
      (module A : Dsm_apps.Workload.S
        with type size = p
         and type behavior = unit) (prm : p) =
    {
      levels = A.levels;
      tmk =
        (fun cfg ?trace ~level ~async () ->
          A.tmk ?trace cfg ~size:prm ~behavior:() ~level ~async);
      pvm = (fun cfg -> A.pvm cfg ~size:prm ~behavior:());
    }
  in
  [
    ( "jacobi",
      kernel (module Dsm_apps.Jacobi)
        { Dsm_apps.Jacobi.small with m = 128; iters = 3 } );
    ( "shallow",
      kernel (module Dsm_apps.Shallow)
        { Dsm_apps.Shallow.small with m = 64; n = 32; steps = 3 } );
    ( "gauss",
      kernel (module Dsm_apps.Gauss) { Dsm_apps.Gauss.small with m = 64 } );
    ( "mgs",
      kernel (module Dsm_apps.Mgs) { Dsm_apps.Mgs.small with m = 48; n = 32 }
    );
    ( "fft3d",
      kernel (module Dsm_apps.Fft3d)
        { Dsm_apps.Fft3d.small with n = 8; iters = 2 } );
    ( "is",
      kernel (module Dsm_apps.Is)
        { Dsm_apps.Is.small with n_keys = 1 lsl 12; n_buckets = 1 lsl 8;
          reps = 2 } );
  ]

(* Each kernel at its deepest level, asynchronous. *)
let fault_apps : (string * (Config.t -> ?trace:Sink.t -> unit -> result)) list
    =
  List.map
    (fun (name, k) ->
      ( name,
        fun cfg ?trace () ->
          k.tmk cfg ?trace ~level:(last_level k.levels) ~async:true () ))
    kernels

let backends = [ Config.Lrc; Config.Hlrc; Config.Inval; Config.Adaptive ]

(* Every kernel under every backend at 8 processors, 10% loss plus
   duplication and jitter: the answer stays exact and the checker,
   including its reliable-delivery rules, stays clean. *)
let test_apps_under_faults () =
  List.iter
    (fun backend ->
      List.iter
        (fun (name, (run : Config.t -> ?trace:Sink.t -> unit -> result)) ->
          let name = name ^ "/" ^ Config.backend_name backend in
          let clean = run { (cfg_n 8) with Config.backend } () in
          let sink = Sink.create ~nprocs:8 () in
          let r =
            run
              { (faulty_cfg 8) with Config.backend; net_drop = 0.1 }
              ~trace:sink ()
          in
          (* terminates (we got here) with the exact answer *)
          Alcotest.(check (float 0.0)) (name ^ ": correct") 0.0 r.max_err;
          Alcotest.(check (float 0.0))
            (name ^ ": same result as fault-free run")
            clean.max_err r.max_err;
          Alcotest.(check bool)
            (name ^ ": faults actually injected")
            true
            (r.stats.Stats.dropped > 0 || r.stats.Stats.duplicates > 0);
          Alcotest.(check bool)
            (name ^ ": recovery costs time")
            true (r.time_us > clean.time_us);
          (* the trace, including the transport events, passes the
             checker *)
          match Check.run_sink sink with
          | [] -> ()
          | vs ->
              Alcotest.failf "%s under faults: %d violations, first: %a" name
                (List.length vs) Check.pp_violation (List.hd vs))
        fault_apps)
    backends

let test_fault_reproducibility () =
  (* same (config, seed): identical trace, clocks and statistics, twice *)
  let run = List.assoc "gauss" fault_apps in
  let once () =
    let sink = Sink.create ~nprocs:8 () in
    let r = run (faulty_cfg 8) ~trace:sink () in
    (r, Sink.events sink)
  in
  let r0, e0 = once ()
  and r1, e1 = once () in
  Alcotest.(check (float 0.0)) "elapsed identical" r0.time_us r1.time_us;
  Alcotest.(check bool) "stats identical" true (r0.stats = r1.stats);
  Alcotest.(check int) "same event count" (List.length e0) (List.length e1);
  Alcotest.(check bool) "event streams identical" true (e0 = e1);
  (* a different seed produces a different faulty schedule *)
  let sink2 = Sink.create ~nprocs:8 () in
  let r2 = run { (faulty_cfg 8) with Config.net_seed = 8 } ~trace:sink2 () in
  Alcotest.(check (float 0.0)) "still correct" r0.max_err r2.max_err;
  Alcotest.(check bool) "different seed, different run" true
    (Sink.events sink2 <> e0)

let test_backend_digest_self_identity () =
  (* every backend, 4 processors, nonzero fault plan: two replays of the
     same (plan, seed) end with the same shared memory, bit for bit *)
  let prm = { Dsm_apps.Gauss.small with m = 48 } in
  List.iter
    (fun backend ->
      let name = Config.backend_name backend in
      let once () =
        Dsm_apps.Gauss.tmk ~digest:true
          { (faulty_cfg 4) with Config.backend = backend }
          ~size:prm ~behavior:() ~level:Sync_merge ~async:true
      in
      let r0 = once ()
      and r1 = once () in
      Alcotest.(check bool)
        (name ^ ": digest computed")
        true (r0.digest <> "");
      Alcotest.(check string)
        (name ^ ": replayed digest identical")
        r0.digest r1.digest;
      Alcotest.(check (float 0.0))
        (name ^ ": replayed clock identical")
        r0.time_us r1.time_us)
    backends

(* {1 One transport: every message crosses the lossy layer}

   With drop = 1.0 every delivery attempt but the forced last one is lost,
   so each message — a one-way send, a delivery timed by its caller, or
   either leg of an RPC — is transmitted [k] times and acked once: [k + 1]
   messages for [k - 1] retransmissions. A message counted anywhere but in
   [Net] breaks the ratio. *)
let test_drop_all_invariant () =
  let k = Plan.default_max_attempts in
  let check label (r : result) =
    let s = r.stats in
    Alcotest.(check (float 0.0)) (label ^ ": correct") 0.0 r.max_err;
    Alcotest.(check bool) (label ^ ": messages sent") true (s.Stats.messages > 0);
    Alcotest.(check int)
      (label ^ ": messages x (k-1) = retransmits x (k+1)")
      (s.Stats.messages * (k - 1))
      (s.Stats.retransmits * (k + 1))
  in
  let lost = { (cfg_n 4) with Config.net_drop = 1.0 } in
  let runs =
    List.concat_map
      (fun (name, kn) ->
        check (name ^ "/pvm") (kn.pvm lost);
        List.concat_map
          (fun backend ->
            List.map
              (fun (level, async) ->
                let r =
                  kn.tmk { lost with Config.backend } ~level ~async ()
                in
                check
                  (Printf.sprintf "%s/%s/%s%s" name
                     (Config.backend_name backend) (opt_level_name level)
                     (if async then "/async" else ""))
                  r;
                (name, backend, level, async, r.stats))
              [ (Base, false); (last_level kn.levels, true) ])
          backends)
      kernels
  in
  (* the sample reaches every message kind that once bypassed [Net] *)
  let sum f =
    List.fold_left (fun acc (n, b, l, a, s) -> acc + f n b l a s) 0 runs
  in
  Alcotest.(check bool) "lock forwards and grants (IS)" true
    (sum (fun n _ _ _ s -> if n = "is" then s.Stats.lock_acquires else 0) > 0);
  Alcotest.(check bool) "barrier broadcast (MGS sync-merge, lrc)" true
    (sum (fun n b l _ s ->
         if n = "mgs" && b = Config.Lrc && l = Sync_merge then
           s.Stats.broadcasts
         else 0)
    > 0);
  Alcotest.(check bool) "invalidation acks (inval)" true
    (sum (fun _ b _ _ s -> if b = Config.Inval then s.Stats.invals else 0) > 0);
  Alcotest.(check bool) "piggy-backed answers (a sync-merge case)" true
    (List.exists (fun (_, _, l, _, _) -> l = Sync_merge) runs);
  Alcotest.(check bool) "asynchronous responses (an async validate case)" true
    (List.exists
       (fun (_, _, l, a, _) -> a && (l = Comm_aggr || l = Cons_elim))
       runs)

(* {1 JSONL round-trip} *)

let test_jsonl_roundtrip () =
  let evs =
    [
      { Event.id = 0; proc = 1; time = 12.5; vc = [| 1; 2 |];
        kind = Event.Msg_drop { msg = 7; src = 1; dst = 0; attempt = 1 } };
      { Event.id = 1; proc = 1; time = 13.25; vc = [| 1; 2 |];
        kind =
          Event.Timeout_fire
            { msg = 7; src = 1; dst = 0; attempt = 1; backoff_us = 1000.0 } };
      { Event.id = 2; proc = 1; time = 14.125; vc = [| 1; 2 |];
        kind = Event.Retransmit { msg = 7; src = 1; dst = 0; attempt = 2 } };
      { Event.id = 3; proc = 0; time = 15.0; vc = [| 0; 2 |];
        kind = Event.Msg_dup { msg = 7; src = 1; dst = 0 } };
      { Event.id = 4; proc = 0; time = 16.5; vc = [| 0; 2 |];
        kind = Event.Ack { msg = 7; src = 1; dst = 0; attempts = 2 } };
      (* a few pre-existing kinds through the same parser *)
      { Event.id = 5; proc = 0; time = 17.0; vc = [| 0; 2 |];
        kind = Event.Notice_send { seq = 3; pages = [ 1; 4; 9 ] } };
      { Event.id = 6; proc = 0; time = 18.0; vc = [| 0; 3 |];
        kind =
          Event.Validate
            { access = "rw"; npages = 4; async = true; w_sync = false } };
      { Event.id = 7; proc = 0; time = 19.0; vc = [| 0; 3 |];
        kind = Event.Broadcast { bytes = 512; requesters = [] } };
    ]
  in
  List.iter
    (fun e ->
      let e' = Event.of_json (Event.to_json e) in
      Alcotest.(check bool)
        (Printf.sprintf "round-trip %s" (Event.kind_name e.Event.kind))
        true (e = e'))
    evs;
  match
    Event.of_json "{\"id\":0,\"proc\":0,\"time\":1.0,\"vc\":[0],\"ev\":\"nope\"}"
  with
  | _ -> Alcotest.fail "unknown kind accepted"
  | exception Event.Parse_error _ -> ()

let test_jsonl_roundtrip_full_run () =
  (* every event of a real faulty run survives to_json |> of_json *)
  let run = List.assoc "is" fault_apps in
  let sink = Sink.create ~nprocs:8 () in
  ignore (run (faulty_cfg 8) ~trace:sink ());
  let evs = Sink.events sink in
  let reparsed = List.map (fun e -> Event.of_json (Event.to_json e)) evs in
  (* times are printed with 3 decimals: compare everything but the clock
     exactly, and the clock to the printed precision *)
  List.iter2
    (fun (a : Event.t) (b : Event.t) ->
      Alcotest.(check bool) "fields survive" true
        (a.id = b.id && a.proc = b.proc && a.vc = b.vc && a.kind = b.kind);
      Alcotest.(check (float 0.001)) "time survives" a.time b.time)
    evs reparsed;
  Alcotest.(check bool) "net kinds present in the trace" true
    (List.exists
       (fun (e : Event.t) ->
         match e.kind with Event.Msg_drop _ -> true | _ -> false)
       evs)

(* {1 Checker: reliable-delivery rules} *)

let ev id proc time vc kind = { Event.id; proc; time; vc; kind }
let rules vs = List.map (fun (v : Check.violation) -> v.rule) vs

let test_checker_accepts_recovered_loss () =
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 0 1.0 [| 0; 0 |]
          (Event.Msg_drop { msg = 0; src = 0; dst = 1; attempt = 1 });
        ev 1 0 2.0 [| 0; 0 |]
          (Event.Timeout_fire
             { msg = 0; src = 0; dst = 1; attempt = 1; backoff_us = 1000.0 });
        ev 2 0 2.0 [| 0; 0 |]
          (Event.Retransmit { msg = 0; src = 0; dst = 1; attempt = 2 });
        ev 3 1 3.0 [| 0; 0 |] (Event.Msg_dup { msg = 0; src = 0; dst = 1 });
        ev 4 1 3.0 [| 0; 0 |]
          (Event.Ack { msg = 0; src = 0; dst = 1; attempts = 2 });
      ]
  in
  Alcotest.(check (list string)) "clean" [] (rules vs)

let test_checker_catches_lost_message () =
  (* a dropped message that is never retransmitted must be flagged *)
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 0 1.0 [| 0; 0 |]
          (Event.Msg_drop { msg = 0; src = 0; dst = 1; attempt = 1 });
      ]
  in
  Alcotest.(check bool) "net-drop-lost flagged" true
    (List.mem "net-drop-lost" (rules vs))

let test_checker_catches_double_ack () =
  (* two acks = a duplicate was applied instead of suppressed *)
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 1 1.0 [| 0; 0 |]
          (Event.Ack { msg = 0; src = 0; dst = 1; attempts = 1 });
        ev 1 1 2.0 [| 0; 0 |]
          (Event.Ack { msg = 0; src = 0; dst = 1; attempts = 1 });
      ]
  in
  Alcotest.(check bool) "net-ack-once flagged" true
    (List.mem "net-ack-once" (rules vs))

let test_checker_catches_undelivered_and_gaps () =
  Alcotest.(check bool) "net-undelivered flagged" true
    (List.mem "net-undelivered"
       (rules
          (Check.run ~nprocs:2
             [
               ev 0 0 1.0 [| 0; 0 |]
                 (Event.Msg_dup { msg = 3; src = 0; dst = 1 });
             ])));
  (* a retransmission with no preceding drop is spurious *)
  Alcotest.(check bool) "net-retransmit-spurious flagged" true
    (List.mem "net-retransmit-spurious"
       (rules
          (Check.run ~nprocs:2
             [
               ev 0 0 1.0 [| 0; 0 |]
                 (Event.Retransmit { msg = 0; src = 0; dst = 1; attempt = 2 });
               ev 1 1 2.0 [| 0; 0 |]
                 (Event.Ack { msg = 0; src = 0; dst = 1; attempts = 2 });
             ])));
  (* attempt numbers must be consecutive *)
  Alcotest.(check bool) "net-retransmit-order flagged" true
    (List.mem "net-retransmit-order"
       (rules
          (Check.run ~nprocs:2
             [
               ev 0 0 1.0 [| 0; 0 |]
                 (Event.Msg_drop { msg = 0; src = 0; dst = 1; attempt = 1 });
               ev 1 0 2.0 [| 0; 0 |]
                 (Event.Timeout_fire
                    { msg = 0; src = 0; dst = 1; attempt = 1;
                      backoff_us = 1000.0 });
               ev 2 0 2.0 [| 0; 0 |]
                 (Event.Retransmit { msg = 0; src = 0; dst = 1; attempt = 5 });
             ])));
  (* and the endpoints of a message may not change *)
  Alcotest.(check bool) "net-endpoints flagged" true
    (List.mem "net-endpoints"
       (rules
          (Check.run ~nprocs:4
             [
               ev 0 0 1.0 [| 0; 0; 0; 0 |]
                 (Event.Msg_drop { msg = 0; src = 0; dst = 1; attempt = 1 });
               ev 1 2 2.0 [| 0; 0; 0; 0 |]
                 (Event.Ack { msg = 0; src = 2; dst = 3; attempts = 1 });
             ])))

let test_checker_rejects_corrupted_jsonl () =
  (* serialize a real faulty run, hand-corrupt it by deleting the
     retransmission and acknowledgement of one singly-dropped message,
     parse the lines back, and demand the checker reject the replay with
     "dropped and never retransmitted" *)
  let run = List.assoc "mgs" fault_apps in
  let sink = Sink.create ~nprocs:8 () in
  ignore (run (faulty_cfg 8) ~trace:sink ());
  let evs = Sink.events sink in
  let drop_count = Hashtbl.create 64 in
  List.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Msg_drop { msg; _ } ->
          Hashtbl.replace drop_count msg
            (1 + Option.value ~default:0 (Hashtbl.find_opt drop_count msg))
      | _ -> ())
    evs;
  let victim =
    (* a message dropped exactly once: deleting its one retransmission and
       its ack leaves a well-formed prefix that simply never recovers *)
    List.find_map
      (fun (e : Event.t) ->
        match e.kind with
        | Event.Msg_drop { msg; _ } when Hashtbl.find drop_count msg = 1 ->
            Some msg
        | _ -> None)
      evs
    |> Option.get
  in
  let lines = List.map Event.to_json evs in
  let corrupted =
    List.filter
      (fun line ->
        match Event.of_json line with
        | { Event.kind = Event.Retransmit { msg; _ }; _ } when msg = victim ->
            false
        | { Event.kind = Event.Ack { msg; _ }; _ } when msg = victim -> false
        | _ -> true)
      lines
  in
  Alcotest.(check int) "two lines deleted"
    (List.length lines - 2)
    (List.length corrupted);
  let vs = Check.run ~nprocs:8 (List.map Event.of_json corrupted) in
  Alcotest.(check bool)
    "corrupted trace rejected: dropped message never retransmitted" true
    (List.mem "net-drop-lost" (rules vs));
  (* and the unmodified replay is clean, through the same parser *)
  Alcotest.(check (list string)) "original replay clean" []
    (rules (Check.run ~nprocs:8 (List.map Event.of_json lines)))

let tests =
  [
    Alcotest.test_case "u01: deterministic, uniform" `Quick test_u01;
    Alcotest.test_case "plan validation" `Quick test_plan_validate;
    Alcotest.test_case "zero-fault pass-through (scripted)" `Quick
      test_passthrough_scripted;
    Alcotest.test_case "zero-fault pass-through (app)" `Quick
      test_passthrough_app;
    Alcotest.test_case "forced loss recovered at the cap" `Quick
      test_forced_loss_recovered;
    Alcotest.test_case "faulty sends cost more" `Quick
      test_faulty_send_costs_more;
    Alcotest.test_case "in-order delivery under jitter" `Quick
      test_inorder_delivery;
    Alcotest.test_case "six apps under faults: correct + checked" `Quick
      test_apps_under_faults;
    Alcotest.test_case "fault runs reproducible from (config, seed)" `Quick
      test_fault_reproducibility;
    Alcotest.test_case "four backends: digest self-identity under faults"
      `Quick test_backend_digest_self_identity;
    Alcotest.test_case "drop = 1: every message crosses the lossy layer"
      `Quick test_drop_all_invariant;
    Alcotest.test_case "jsonl round-trip (new kinds)" `Quick
      test_jsonl_roundtrip;
    Alcotest.test_case "jsonl round-trip (full faulty run)" `Quick
      test_jsonl_roundtrip_full_run;
    Alcotest.test_case "checker accepts recovered loss" `Quick
      test_checker_accepts_recovered_loss;
    Alcotest.test_case "checker catches lost message" `Quick
      test_checker_catches_lost_message;
    Alcotest.test_case "checker catches double ack" `Quick
      test_checker_catches_double_ack;
    Alcotest.test_case "checker catches undelivered/spurious/gaps" `Quick
      test_checker_catches_undelivered_and_gaps;
    Alcotest.test_case "checker rejects corrupted jsonl" `Quick
      test_checker_rejects_corrupted_jsonl;
  ]
