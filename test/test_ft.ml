(* Fault-tolerance subsystem: crash schedules, replicated homes and
   recovery.

   Covers: schedule parsing and the shared field-error validation
   messages, the quorum arithmetic, digest equivalence of replicated and
   crash-recovered runs against the plain single-home protocol (the
   headline guarantee: a crash of a minority loses nothing), determinism
   of faulty runs, the fault-tolerance statistics counters, and the
   checker's fault-tolerance rules — in particular that a synthetic
   trace in which an acknowledged write disappears after a crash is
   rejected by [quorum-read-current]. *)

module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats
module Schedule = Dsm_ft.Schedule
module Event = Dsm_trace.Event
module Sink = Dsm_trace.Sink
module Check = Dsm_trace.Check
open Dsm_apps.App_common

(* {1 Schedule parsing} *)

let test_parse () =
  Alcotest.(check bool)
    "empty schedule" true
    (Schedule.parse "" = Ok []);
  Alcotest.(check bool)
    "one triple" true
    (Schedule.parse "1@20000+5000" = Ok [ (1, 20000.0, 5000.0) ]);
  Alcotest.(check bool)
    "two triples, spaces tolerated" true
    (Schedule.parse "1@2e4+5e3, 3@40000+1000"
    = Ok [ (1, 20000.0, 5000.0); (3, 40000.0, 1000.0) ]);
  let bad s =
    match Schedule.parse s with
    | Error msg ->
        Alcotest.(check bool)
          (s ^ ": names the grammar") true
          (String.length msg > 0
          && String.sub msg 0 6 = "crash:")
    | Ok _ -> Alcotest.failf "%S parsed" s
  in
  List.iter bad [ "1"; "1@"; "1@200"; "1@200+"; "x@1+2"; "1@x+2"; "1@2+x" ]

let test_quorum_arithmetic () =
  List.iter
    (fun (k, q, t) ->
      Alcotest.(check int)
        (Printf.sprintf "quorum of %d" k)
        q
        (Schedule.quorum_of ~replicas:k);
      Alcotest.(check int)
        (Printf.sprintf "tolerance of %d" k)
        t
        (Schedule.tolerance ~replicas:k))
    [ (1, 1, 0); (2, 2, 0); (3, 2, 1); (4, 3, 1); (5, 3, 2) ]

(* {1 Validation: every field names itself and its accepted range} *)

let validate ?(nprocs = 4) ?(backend = Config.Hlrc) ?(replicas = 3)
    ?(ckpt_every = 0) crash =
  Schedule.validate ~nprocs ~backend ~replicas ~ckpt_every crash

let check_error name expected = function
  | Error msg -> Alcotest.(check string) name expected msg
  | Ok _ -> Alcotest.failf "%s: accepted" name

let test_validate_errors () =
  check_error "replicas over nprocs"
    "replicas: 5 outside accepted range [1, nprocs=4]"
    (validate ~replicas:5 []);
  check_error "negative ckpt_every"
    "ckpt_every: -1 outside accepted range [0, max_int]"
    (validate ~ckpt_every:(-1) []);
  check_error "crash needs hlrc"
    "crash: a crash schedule requires the hlrc backend"
    (validate ~backend:Config.Lrc [ (1, 100.0, 50.0) ]);
  check_error "crash needs replicas >= 3"
    "replicas: 1 outside accepted range [3, nprocs] when a crash schedule \
     is set"
    (validate ~replicas:1 [ (1, 100.0, 50.0) ]);
  List.iter
    (fun backend ->
      check_error
        ("replicas need hlrc: " ^ Config.backend_name backend)
        "replicas: 3 outside accepted range {1} unless the backend is hlrc"
        (validate ~backend []))
    [ Config.Lrc; Config.Inval; Config.Adaptive ];
  (match validate ~backend:Config.Adaptive ~replicas:1 [] with
  | Ok [] -> ()
  | Ok _ | Error _ -> Alcotest.fail "adaptive with one replica rejected");
  check_error "crash proc range"
    "crash proc: 9 outside accepted range [0, nprocs=4)"
    (validate [ (9, 100.0, 50.0) ]);
  check_error "crash time range"
    "crash at_us: -1 outside accepted range [0, inf)"
    (validate [ (1, -1.0, 50.0) ]);
  check_error "crash downtime range"
    "crash down_us: 0 outside accepted range (0, inf)"
    (validate [ (1, 100.0, 0.0) ]);
  (match validate [ (1, 100.0, 200.0); (1, 250.0, 50.0) ] with
  | Error msg ->
      Alcotest.(check bool)
        "overlap names the processor" true
        (String.length msg > 0
        && msg
           = "crash: overlapping windows for processor 1 (a node must \
              rejoin before it can crash again)")
  | Ok _ -> Alcotest.fail "overlapping windows accepted");
  check_error "too many concurrent failures"
    "crash concurrent failures: 2 outside accepted range [0, 1] for \
     replicas=3"
    (validate [ (1, 100.0, 200.0); (2, 150.0, 200.0) ]);
  (* a valid schedule comes back ordered by trigger time *)
  match validate [ (2, 300.0, 10.0); (1, 100.0, 10.0) ] with
  | Ok [ a; b ] ->
      Alcotest.(check int) "ordered: first proc" 1 a.Schedule.proc;
      Alcotest.(check int) "ordered: second proc" 2 b.Schedule.proc
  | Ok _ | Error _ -> Alcotest.fail "valid schedule rejected"

(* {1 Crash recovery loses nothing}

   The same application run (a) plain single-home, (b) replicated with
   k=3 and (c) replicated with a mid-run crash and restart must end with
   bit-identical shared memory. Sizes are chosen so the crash trigger
   falls inside the run; the statistics confirm the crash really
   executed. *)

let jacobi_prm =
  let open Dsm_apps.Jacobi in
  { small with m = 64; iters = 4 }

let gauss_prm =
  let open Dsm_apps.Gauss in
  { small with m = 48 }

let ft_cfg ?(replicas = 3) ?(ckpt_every = 2) ?(crash = []) nprocs =
  {
    Config.default with
    Config.nprocs = nprocs;
    backend = Config.Hlrc;
    replicas;
    ckpt_every;
    crash;
  }

type runner = {
  rname : string;
  rrun : ?trace:Sink.t -> Config.t -> result;
}

let runners =
  [
    {
      rname = "jacobi";
      rrun =
        (fun ?trace cfg ->
          Dsm_apps.Jacobi.tmk ?trace ~digest:true cfg ~size:jacobi_prm
            ~behavior:()
            ~level:Push_opt ~async:true);
    };
    {
      rname = "gauss";
      rrun =
        (fun ?trace cfg ->
          Dsm_apps.Gauss.tmk ?trace ~digest:true cfg ~size:gauss_prm
            ~behavior:()
            ~level:Push_opt ~async:true);
    };
  ]

let crash_sched = [ (1, 5000.0, 3000.0) ]

let test_crash_recovery_equivalence () =
  List.iter
    (fun r ->
      let plain = r.rrun (ft_cfg ~replicas:1 ~ckpt_every:0 4) in
      let repl = r.rrun (ft_cfg 4) in
      let crashed = r.rrun (ft_cfg ~crash:crash_sched 4) in
      Alcotest.(check (float 1e-6)) (r.rname ^ ": verified") 0.0
        crashed.max_err;
      Alcotest.(check int)
        (r.rname ^ ": the crash executed")
        1 crashed.stats.Stats.crashes;
      Alcotest.(check int)
        (r.rname ^ ": the node restarted")
        1 crashed.stats.Stats.restarts;
      Alcotest.(check bool)
        (r.rname ^ ": quorum writes happened")
        true
        (crashed.stats.Stats.quorum_writes > 0);
      Alcotest.(check bool)
        (r.rname ^ ": digest computed")
        true (plain.digest <> "");
      Alcotest.(check string)
        (r.rname ^ ": replication is transparent")
        plain.digest repl.digest;
      Alcotest.(check string)
        (r.rname ^ ": crash + recovery loses nothing")
        plain.digest crashed.digest)
    runners

let test_crash_run_checker_clean () =
  List.iter
    (fun r ->
      let sink = Sink.create ~nprocs:4 () in
      let res = r.rrun ~trace:sink (ft_cfg ~crash:crash_sched 4) in
      Alcotest.(check int)
        (r.rname ^ ": crash traced")
        1 res.stats.Stats.crashes;
      let crashes, restarts, qwrites, qreads, ckpts =
        List.fold_left
          (fun (c, rs, qw, qr, ck) (e : Event.t) ->
            match e.Event.kind with
            | Event.Crash _ -> (c + 1, rs, qw, qr, ck)
            | Event.Restart _ -> (c, rs + 1, qw, qr, ck)
            | Event.Quorum_write _ -> (c, rs, qw + 1, qr, ck)
            | Event.Quorum_read _ -> (c, rs, qw, qr + 1, ck)
            | Event.Ckpt _ -> (c, rs, qw, qr, ck + 1)
            | _ -> (c, rs, qw, qr, ck))
          (0, 0, 0, 0, 0) (Sink.events sink)
      in
      Alcotest.(check int) (r.rname ^ ": one Crash event") 1 crashes;
      Alcotest.(check int) (r.rname ^ ": one Restart event") 1 restarts;
      Alcotest.(check bool)
        (r.rname ^ ": quorum writes traced")
        true (qwrites > 0);
      Alcotest.(check bool)
        (r.rname ^ ": quorum reads traced")
        true (qreads > 0);
      Alcotest.(check bool) (r.rname ^ ": checkpoints traced") true (ckpts > 0);
      match Check.run_sink sink with
      | [] -> ()
      | vs ->
          Alcotest.failf "%s crash run: %d violations, first: %a" r.rname
            (List.length vs) Check.pp_violation (List.hd vs))
    runners

let test_crash_run_deterministic () =
  let r = List.hd runners in
  let once () =
    let sink = Sink.create ~nprocs:4 () in
    let res = r.rrun ~trace:sink (ft_cfg ~crash:crash_sched 4) in
    (res, Sink.events sink)
  in
  let r0, e0 = once ()
  and r1, e1 = once () in
  Alcotest.(check (float 0.0)) "elapsed identical" r0.time_us r1.time_us;
  Alcotest.(check string) "digest identical" r0.digest r1.digest;
  Alcotest.(check bool) "stats identical" true (r0.stats = r1.stats);
  Alcotest.(check bool) "event streams identical" true (e0 = e1)

(* {1 The checker rejects a lost acknowledged write}

   p0 releases interval 1 of page 7 and the quorum write is acknowledged
   by p1 and p2. p2 then crashes, losing its copy, and restarts. If p1 —
   which acknowledged the write and therefore knows p0's interval 1 — is
   served page 7 from p2's post-crash copy, an acknowledged write has
   disappeared: [quorum-read-current] must fire. *)

let ev id proc time vc kind = { Event.id; proc; time; vc; kind }
let rules vs = List.map (fun (v : Check.violation) -> v.Check.rule) vs

let lost_write_prefix =
  [
    ev 0 0 1.0 [| 1; 0; 0 |] (Event.Notice_send { seq = 1; pages = [ 7 ] });
    ev 1 0 2.0 [| 1; 0; 0 |]
      (Event.Quorum_write { page = 7; seq = 1; acks = [ 1; 2 ]; needed = 2 });
    ev 2 2 3.0 [| 0; 0; 0 |] (Event.Crash { epoch = 0 });
    ev 3 2 4.0 [| 0; 0; 0 |] (Event.Restart { epoch = 0; ckpt = 0 });
  ]

let test_checker_catches_lost_ack_write () =
  let vs =
    Check.run ~nprocs:3
      (lost_write_prefix
      @ [
          ev 4 1 5.0 [| 1; 0; 0 |]
            (Event.Quorum_read
               { page = 7; from = 2; acks = [ 1; 2 ]; needed = 2 });
        ])
  in
  Alcotest.(check bool)
    "quorum-read-current flagged" true
    (List.mem "quorum-read-current" (rules vs))

let test_checker_accepts_surviving_copy () =
  (* same story, but the restarted node repairs from the survivor that
     still holds the acknowledged write: clean *)
  let vs =
    Check.run ~nprocs:3
      (lost_write_prefix
      @ [
          ev 4 2 5.0 [| 0; 0; 0 |]
            (Event.Quorum_read
               { page = 7; from = 1; acks = [ 1; 2 ]; needed = 2 });
        ])
  in
  Alcotest.(check (list string)) "clean" [] (rules vs)

let test_checker_ft_rules () =
  let crash p = Event.Crash { epoch = 0 } |> ev 0 p 1.0 [| 0; 0; 0 |] in
  let vs = Check.run ~nprocs:3 [ crash 2; { (crash 2) with Event.id = 1 } ] in
  Alcotest.(check bool)
    "double crash flagged" true
    (List.mem "crash-alternate" (rules vs));
  let vs =
    Check.run ~nprocs:3
      [ ev 0 2 1.0 [| 0; 0; 0 |] (Event.Restart { epoch = 0; ckpt = 0 }) ]
  in
  Alcotest.(check bool)
    "restart without crash flagged" true
    (List.mem "crash-alternate" (rules vs));
  let vs = Check.run ~nprocs:3 [ crash 2 ] in
  Alcotest.(check bool)
    "crashed forever flagged" true
    (List.mem "crash-alternate" (rules vs));
  let vs =
    Check.run ~nprocs:3
      [
        ev 0 0 1.0 [| 1; 0; 0 |] (Event.Notice_send { seq = 1; pages = [ 7 ] });
        ev 1 0 2.0 [| 1; 0; 0 |]
          (Event.Quorum_write { page = 7; seq = 1; acks = [ 1 ]; needed = 2 });
      ]
  in
  Alcotest.(check bool)
    "under-quorum write flagged" true
    (List.mem "quorum-write-under" (rules vs));
  let vs =
    Check.run ~nprocs:3
      [
        ev 0 0 1.0 [| 0; 0; 0 |]
          (Event.Quorum_write { page = 7; seq = 1; acks = [ 1; 2 ]; needed = 2 });
      ]
  in
  Alcotest.(check bool)
    "unreleased flush flagged" true
    (List.mem "quorum-write-future" (rules vs));
  let vs =
    Check.run ~nprocs:3
      [
        ev 0 1 1.0 [| 0; 0; 0 |]
          (Event.Quorum_read
             { page = 7; from = 0; acks = [ 1; 2 ]; needed = 2 });
      ]
  in
  Alcotest.(check bool)
    "source outside live set flagged" true
    (List.mem "quorum-read-source" (rules vs));
  let vs =
    Check.run ~nprocs:3
      [
        ev 0 1 1.0 [| 0; 0; 0 |] (Event.Ckpt { id = 1; ckpt_epoch = 2 });
        ev 1 1 2.0 [| 0; 0; 0 |] (Event.Ckpt { id = 2; ckpt_epoch = 2 });
      ]
  in
  Alcotest.(check bool)
    "non-monotone checkpoint flagged" true
    (List.mem "ckpt-monotone" (rules vs));
  let vs =
    Check.run ~nprocs:3
      [ ev 0 1 1.0 [| 0; 0; 0 |] (Event.Suspect { peer = 1; attempts = 16 }) ]
  in
  Alcotest.(check bool)
    "self-suspicion flagged" true
    (List.mem "suspect-range" (rules vs))

let tests =
  [
    Alcotest.test_case "schedule parsing" `Quick test_parse;
    Alcotest.test_case "quorum arithmetic" `Quick test_quorum_arithmetic;
    Alcotest.test_case "validation errors name field and range" `Quick
      test_validate_errors;
    Alcotest.test_case "crash + recovery: digests identical" `Quick
      test_crash_recovery_equivalence;
    Alcotest.test_case "crash runs pass the checker" `Quick
      test_crash_run_checker_clean;
    Alcotest.test_case "crash runs deterministic" `Quick
      test_crash_run_deterministic;
    Alcotest.test_case "checker catches a lost acknowledged write" `Quick
      test_checker_catches_lost_ack_write;
    Alcotest.test_case "checker accepts the surviving copy" `Quick
      test_checker_accepts_surviving_copy;
    Alcotest.test_case "checker fault-tolerance rules" `Quick
      test_checker_ft_rules;
  ]
