(* Engine (cooperative scheduler), cluster cost model, vector clocks. *)

module Engine = Dsm_sim.Engine
module Cluster = Dsm_sim.Cluster
module Config = Dsm_sim.Config
module Vc = Dsm_tmk.Vc

let test_engine_runs_all () =
  let hits = Array.make 4 0 in
  Engine.run ~nprocs:4 (fun p -> hits.(p) <- hits.(p) + 1);
  Alcotest.(check (list int)) "all ran once" [ 1; 1; 1; 1 ] (Array.to_list hits)

let test_engine_block () =
  (* a simple rendezvous: 0 waits for 1's flag, 1 waits for 0's *)
  let flag = Array.make 2 false in
  let order = ref [] in
  Engine.run ~nprocs:2 (fun p ->
      flag.(p) <- true;
      Engine.block ~until:(fun () -> flag.(1 - p));
      order := p :: !order);
  Alcotest.(check int) "both resumed" 2 (List.length !order)

let test_engine_yield () =
  let log = ref [] in
  Engine.run ~nprocs:2 (fun p ->
      log := (p, 'a') :: !log;
      Engine.yield ();
      log := (p, 'b') :: !log);
  (* with yields, both 'a' phases run before both 'b' phases *)
  Alcotest.(check (list (pair int char)))
    "interleaved"
    [ (0, 'a'); (1, 'a'); (0, 'b'); (1, 'b') ]
    (List.rev !log)

let test_engine_deadlock () =
  Alcotest.check_raises "deadlock detected"
    (Engine.Deadlock "fibers blocked: [0,1]") (fun () ->
      Engine.run ~nprocs:2 (fun _ -> Engine.block ~until:(fun () -> false)))

let test_engine_determinism () =
  let trace () =
    let log = ref [] in
    let turn = ref 0 in
    Engine.run ~nprocs:3 (fun p ->
        Engine.block ~until:(fun () -> !turn = p);
        log := p :: !log;
        incr turn);
    !log
  in
  Alcotest.(check (list int)) "deterministic" (trace ()) (trace ())

let cfg = Config.default

let test_send_cost () =
  let c = Cluster.create cfg in
  let arrival = Cluster.send c ~src:0 ~dst:1 ~bytes:1000 in
  (* sender pays overhead + wire bytes; arrival adds latency *)
  let expect_clock = cfg.Config.msg_overhead_us +. (0.03 *. 1000.0) in
  Alcotest.(check (float 0.001)) "sender clock" expect_clock (Cluster.time c 0);
  Alcotest.(check (float 0.001))
    "arrival" (expect_clock +. cfg.Config.wire_latency_us) arrival;
  Alcotest.(check int) "message counted" 1 c.Cluster.stats.(0).Dsm_sim.Stats.messages;
  Alcotest.(check int) "bytes counted" 1000 c.Cluster.stats.(0).Dsm_sim.Stats.bytes

let test_rpc_roundtrip () =
  let c = Cluster.create cfg in
  Cluster.rpc c ~src:0 ~dst:1 ~req_bytes:0 ~resp_bytes:0 ~service:0.0;
  Alcotest.(check (float 0.5)) "365 us minimum roundtrip" 365.0 (Cluster.time c 0);
  Alcotest.(check int) "two messages" 1 c.Cluster.stats.(0).Dsm_sim.Stats.messages;
  Alcotest.(check int) "reply counted at target" 1
    c.Cluster.stats.(1).Dsm_sim.Stats.messages

let test_rpc_queueing () =
  let c = Cluster.create cfg in
  Cluster.rpc c ~src:0 ~dst:2 ~req_bytes:0 ~resp_bytes:0 ~service:100.0;
  let t0 = Cluster.time c 0 in
  (* processor 1's request arrives while 2's handler is busy: serialized *)
  Cluster.rpc c ~src:1 ~dst:2 ~req_bytes:0 ~resp_bytes:0 ~service:100.0;
  let t1 = Cluster.time c 1 in
  Alcotest.(check bool) "second serializes behind first" true (t1 > t0);
  (* a request from the "past" is served at its own arrival time *)
  let c2 = Cluster.create cfg in
  Cluster.charge c2 0 10000.0;
  Cluster.rpc c2 ~src:0 ~dst:2 ~req_bytes:0 ~resp_bytes:0 ~service:100.0;
  Cluster.rpc c2 ~src:1 ~dst:2 ~req_bytes:0 ~resp_bytes:0 ~service:100.0;
  Alcotest.(check bool) "past request not delayed" true
    (Cluster.time c2 1 < 1000.0)

let test_occupy () =
  let c = Cluster.create cfg in
  let s1 = Cluster.occupy c 3 ~arrival:100.0 ~handler_time:50.0 in
  let s2 = Cluster.occupy c 3 ~arrival:120.0 ~handler_time:50.0 in
  let s3 = Cluster.occupy c 3 ~arrival:500.0 ~handler_time:50.0 in
  let s4 = Cluster.occupy c 3 ~arrival:10.0 ~handler_time:50.0 in
  Alcotest.(check (float 0.001)) "first immediate" 100.0 s1;
  Alcotest.(check (float 0.001)) "second queued" 150.0 s2;
  Alcotest.(check (float 0.001)) "later period fresh" 500.0 s3;
  Alcotest.(check (float 0.001)) "past served at arrival" 10.0 s4

let test_occupy_hotspot_serialization () =
  (* regression for the hot-spot contention model: a burst of overlapping
     requests to one processor must serialize back to back behind its busy
     interval, in arrival order, with no two service intervals overlapping *)
  let c = Cluster.create cfg in
  let ht = 50.0 in
  let starts =
    List.map
      (fun arrival -> Cluster.occupy c 5 ~arrival ~handler_time:ht)
      [ 100.0; 110.0; 120.0; 130.0; 149.9 ]
  in
  Alcotest.(check (list (float 0.001)))
    "burst serializes consecutively"
    [ 100.0; 150.0; 200.0; 250.0; 300.0 ]
    starts;
  (* a request arriving exactly when the queue drains starts a fresh busy
     period at its own arrival time *)
  Alcotest.(check (float 0.001))
    "boundary arrival not queued" 350.0
    (Cluster.occupy c 5 ~arrival:350.0 ~handler_time:ht);
  (* a request from before the current busy period (a processor whose
     clock lags) is served at its own arrival: occupancy then is unknown *)
  Alcotest.(check (float 0.001))
    "past request served at arrival" 10.0
    (Cluster.occupy c 5 ~arrival:10.0 ~handler_time:ht);
  (* other processors' handlers are independent *)
  Alcotest.(check (float 0.001))
    "no cross-processor queueing" 360.0
    (Cluster.occupy c 6 ~arrival:360.0 ~handler_time:ht);
  (* ablation: with queueing disabled every request starts at arrival *)
  let c2 =
    Cluster.create { cfg with Config.enable_hotspot_queueing = false }
  in
  List.iter
    (fun arrival ->
      Alcotest.(check (float 0.001))
        "ablated: start = arrival" arrival
        (Cluster.occupy c2 5 ~arrival ~handler_time:ht))
    [ 100.0; 110.0; 120.0 ]

let test_occupy_rpc_hotspot () =
  (* the same property observed through rpc: four processors firing at one
     target complete 365 + service us apart, in arrival order *)
  let c = Cluster.create cfg in
  let service = 200.0 in
  List.iter
    (fun src -> Cluster.rpc c ~src ~dst:7 ~req_bytes:0 ~resp_bytes:0 ~service)
    [ 0; 1; 2; 3 ];
  let done_at = List.map (Cluster.time c) [ 0; 1; 2; 3 ] in
  let rec gaps = function
    | a :: b :: tl ->
        Alcotest.(check bool) "later requester finishes later" true (b > a);
        gaps (b :: tl)
    | _ -> ()
  in
  gaps done_at;
  (* each handler occupation is interrupt + 2*overhead + service long; the
     four completions must span at least three full handler times *)
  let handler =
    cfg.Config.interrupt_us +. (2.0 *. cfg.Config.msg_overhead_us) +. service
  in
  Alcotest.(check bool) "completions spaced by the busy interval" true
    (List.nth done_at 3 -. List.nth done_at 0 >= 3.0 *. handler -. 0.001)

let test_mm_cost () =
  let c = Cluster.create cfg in
  c.Cluster.pages_in_use <- 2000;
  Cluster.mm_op c 0 ~npages:1;
  let t = Cluster.time c 0 in
  Alcotest.(check bool) "within published 18..800 range" true
    (t >= 18.0 && t <= 800.0)

let test_vc () =
  let a = Vc.create 4
  and b = Vc.create 4 in
  Vc.set a 0 3;
  Vc.set b 0 3;
  Vc.set b 1 2;
  Alcotest.(check bool) "leq" true (Vc.leq a b);
  Alcotest.(check bool) "not leq" false (Vc.leq b a);
  Alcotest.(check bool) "dominates" true (Vc.dominates b a);
  Alcotest.(check int) "sum" 5 (Vc.sum b);
  Vc.merge a b;
  Alcotest.(check bool) "merge = lub" true (Vc.leq b a && Vc.leq a b)

let qcheck_vc =
  let gen = QCheck.Gen.(pair (array_size (return 4) (int_bound 10))
                          (array_size (return 4) (int_bound 10))) in
  QCheck.Test.make ~count:300 ~name:"vc: hb implies smaller sum"
    (QCheck.make gen) (fun (a, b) ->
      (not (Vc.leq a b && not (Vc.leq b a))) || Vc.sum a < Vc.sum b)

let tests =
  [
    Alcotest.test_case "engine runs all" `Quick test_engine_runs_all;
    Alcotest.test_case "engine block" `Quick test_engine_block;
    Alcotest.test_case "engine yield" `Quick test_engine_yield;
    Alcotest.test_case "engine deadlock" `Quick test_engine_deadlock;
    Alcotest.test_case "engine determinism" `Quick test_engine_determinism;
    Alcotest.test_case "send cost" `Quick test_send_cost;
    Alcotest.test_case "rpc roundtrip = 365us" `Quick test_rpc_roundtrip;
    Alcotest.test_case "rpc queueing" `Quick test_rpc_queueing;
    Alcotest.test_case "occupy" `Quick test_occupy;
    Alcotest.test_case "occupy: hot-spot serialization" `Quick
      test_occupy_hotspot_serialization;
    Alcotest.test_case "occupy: rpc hot-spot ordering" `Quick
      test_occupy_rpc_hotspot;
    Alcotest.test_case "mm cost range" `Quick test_mm_cost;
    Alcotest.test_case "vector clocks" `Quick test_vc;
  ]
  @ [ QCheck_alcotest.to_alcotest qcheck_vc ]
