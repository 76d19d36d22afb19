(* One counter vocabulary: the [Stats] counter table covers every field
   of the record exactly once, and the per-phase table built from a
   trace sums to the run's own statistics on every counter the trace
   reproduces. *)

open Dsm_apps.App_common
module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats
module Sink = Dsm_trace.Sink
module Phases = Dsm_harness.Phases

(* {1 The table is the record} *)

let contains text sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
  in
  go 0

let test_table_complete () =
  let cs = Stats.counters in
  (* every field is an immediate int, so the block size is the field
     count: a field added without a table entry fails here *)
  Alcotest.(check int) "one entry per record field"
    (Obj.size (Obj.repr (Stats.create ())))
    (List.length cs);
  Alcotest.(check int) "names unique" (List.length cs)
    (List.length (List.sort_uniq compare (List.map (fun c -> c.Stats.name) cs)));
  let t = Stats.create () in
  List.iteri (fun i (c : Stats.counter) -> c.set t (i + 1)) cs;
  List.iteri
    (fun i (c : Stats.counter) ->
      Alcotest.(check int) (c.name ^ ": get returns what set stored") (i + 1)
        (c.get t);
      (* entries are in declaration order, so each writes its own field *)
      Alcotest.(check int) (c.name ^ ": field position") (i + 1)
        (Obj.obj (Obj.field (Obj.repr t) i));
      Alcotest.(check bool) (c.name ^ ": find") true (Stats.find c.name == c))
    cs;
  let acc = Stats.create () in
  Stats.add acc t;
  Stats.add acc t;
  let sum = Stats.total [| t; t; t |] in
  let line = Format.asprintf "%a" Stats.pp t in
  List.iteri
    (fun i (c : Stats.counter) ->
      Alcotest.(check int) (c.name ^ ": add") (2 * (i + 1)) (c.get acc);
      Alcotest.(check int) (c.name ^ ": total") (3 * (i + 1)) (c.get sum);
      Alcotest.(check bool) (c.name ^ ": printed") true
        (contains (" " ^ line ^ " ")
           (Printf.sprintf " %s=%d " c.name (i + 1))))
    cs;
  Alcotest.(check string) "zero counters are silent" ""
    (Format.asprintf "%a" Stats.pp (Stats.create ()))

(* {1 The phase rows sum to the statistics} *)

let phases_agree name (r : result) sink =
  Alcotest.(check (float 1e-6)) (name ^ ": verified") 0.0 r.max_err;
  let phases = Phases.of_events (Sink.events sink) in
  List.iter
    (fun (c : Stats.counter) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: %s" name c.name)
        (c.get r.stats)
        (List.fold_left
           (fun acc (p : Phases.phase) -> acc + c.get p.counts)
           0 phases))
    Phases.traced_counters

let traced name run =
  let sink = Sink.create ~nprocs:4 () in
  phases_agree name (run sink) sink

let backends = [ Config.Lrc; Config.Hlrc; Config.Inval; Config.Adaptive ]

let test_kernel (case : Test_backends.case) () =
  let deepest = Test_backends.last case.levels in
  List.iter
    (fun backend ->
      List.iter
        (fun (level, async) ->
          traced
            (Printf.sprintf "%s %s %s%s" case.app
               (Config.backend_name backend)
               (opt_level_name level)
               (if async then " async" else ""))
            (fun sink ->
              case.run ~trace:sink
                { Config.default with Config.nprocs = 4; backend }
                ~level ~async))
        [ (Base, false); (deepest, false); (deepest, true) ])
    backends

let jacobi ?(level = Base) ?(async = false) cfg sink =
  Dsm_apps.Jacobi.tmk ~trace:sink cfg
    ~size:{ Dsm_apps.Jacobi.small with m = 64; iters = 4 }
    ~behavior:() ~level ~async

let test_lossy () =
  traced "jacobi lossy"
    (jacobi
       { Config.default with Config.nprocs = 4; net_drop = 0.05; net_dup = 0.03 })

let test_crash () =
  traced "jacobi hlrc replicas 3 crash"
    (jacobi ~level:Push_opt ~async:true
       {
         Config.default with
         Config.nprocs = 4;
         backend = Config.Hlrc;
         replicas = 3;
         ckpt_every = 2;
         crash = [ (1, 5000.0, 3000.0) ];
       })

let test_kv () =
  List.iter
    (fun backend ->
      traced
        ("kv " ^ Config.backend_name backend)
        (fun sink ->
          Dsm_apps.Kv.tmk ~trace:sink
            { Config.default with Config.nprocs = 4; backend }
            ~size:Dsm_apps.Kv.tiny ~behavior:Dsm_apps.Kv.default_behavior
            ~level:Base ~async:true))
    backends

let tests =
  Alcotest.test_case "stats table covers the record" `Quick test_table_complete
  :: List.map
       (fun (case : Test_backends.case) ->
         Alcotest.test_case
           (case.app ^ ": phase rows sum to stats")
           `Quick (test_kernel case))
       Test_backends.cases
  @ [
      Alcotest.test_case "lossy run: phase rows sum to stats" `Quick
        test_lossy;
      Alcotest.test_case "crash run: phase rows sum to stats" `Quick
        test_crash;
      Alcotest.test_case "kv: phase rows sum to stats" `Quick test_kv;
    ]
