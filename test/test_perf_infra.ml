(* The performance infrastructure added with the profiling PR: the
   self-profiler's disabled/enabled semantics and non-interference with
   simulated results, the indexed write-notice log, and the bench
   trajectory writer/parser/regression gate. *)

module Prof = Dsm_prof.Prof
module Ilog = Dsm_tmk.Ilog
module Bench_log = Dsm_harness.Bench_log
module Tmk = Dsm_tmk.Tmk
module Shm = Dsm_tmk.Shm
module Config = Dsm_sim.Config

(* {1 Prof} *)

let test_prof_disabled_noop () =
  Prof.reset ();
  Prof.enter Prof.Protocol;
  Prof.tick Prof.Vc;
  Prof.exit Prof.Protocol;
  let rows, total = Prof.report () in
  Alcotest.(check int) "no rows recorded while disabled" 0 (List.length rows);
  Alcotest.(check (float 0.0)) "no total while disabled" 0.0 total

let test_prof_spans_and_ticks () =
  Prof.enable ();
  Prof.enter Prof.Protocol;
  Prof.enter Prof.Diff_create;
  ignore (Sys.opaque_identity (Array.init 1000 Fun.id));
  Prof.exit Prof.Diff_create;
  Prof.exit Prof.Protocol;
  for _ = 1 to 5 do
    Prof.tick Prof.Vc
  done;
  Prof.disable ();
  let rows, total = Prof.report () in
  let row name = List.find_opt (fun (r : Prof.row) -> r.name = name) rows in
  (match row "protocol" with
  | Some r -> Alcotest.(check int) "protocol spans" 1 r.Prof.calls
  | None -> Alcotest.fail "protocol row missing");
  (match row "diff-create" with
  | Some r -> Alcotest.(check int) "nested span counted" 1 r.Prof.calls
  | None -> Alcotest.fail "diff-create row missing");
  (match row "vc" with
  | Some r -> Alcotest.(check int) "ticks counted" 5 r.Prof.ops
  | None -> Alcotest.fail "vc row missing");
  let self_sum = List.fold_left (fun a (r : Prof.row) -> a +. r.self_s) 0.0 rows in
  Alcotest.(check bool) "self times sum to <= total" true
    (self_sum <= total +. 1e-9)

let test_prof_exception_unwind () =
  Prof.enable ();
  (try Prof.span Prof.Sync (fun () -> failwith "boom") with Failure _ -> ());
  Prof.disable ();
  let rows, _ = Prof.report () in
  match List.find_opt (fun (r : Prof.row) -> r.name = "sync") rows with
  | Some r -> Alcotest.(check int) "span closed on unwind" 1 r.Prof.calls
  | None -> Alcotest.fail "sync row missing"

(* Profiling must not perturb the simulation: the same program yields the
   same virtual elapsed time with the profiler on and off. *)
let run_small_sim () =
  let sys = Tmk.make { Config.default with nprocs = 4; page_size = 256 } in
  let a = Tmk.Alloc.array sys "a" Tmk.F64 ~dims:[ 64 ] in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      Shm.F64_1.set t a p (float_of_int (p + 1));
      Tmk.barrier t;
      ignore (Shm.F64_1.get t a ((p + 1) mod 4)));
  Tmk.elapsed sys

let test_prof_does_not_perturb_simulation () =
  let off = run_small_sim () in
  Prof.enable ();
  let on = run_small_sim () in
  Prof.disable ();
  Alcotest.(check (float 0.0)) "virtual time identical under profiling" off on

(* {1 Ilog} *)

let test_ilog_count_since () =
  let l = Ilog.create () in
  Ilog.add l ~seq:1 [ 10; 11 ];
  Ilog.add l ~seq:2 [];
  Ilog.add l ~seq:3 [ 12 ];
  Alcotest.(check int) "hi" 3 (Ilog.hi l);
  Alcotest.(check int) "all" 3 (Ilog.count_since l 0);
  Alcotest.(check int) "since 1" 1 (Ilog.count_since l 1);
  Alcotest.(check int) "since hi" 0 (Ilog.count_since l 3);
  Alcotest.(check int) "clamped above" 0 (Ilog.count_since l 99);
  Alcotest.(check int) "clamped below" 3 (Ilog.count_since l (-5))

let test_ilog_dense_seqs_only () =
  let l = Ilog.create () in
  Ilog.add l ~seq:1 [ 1 ];
  Alcotest.check_raises "gap rejected"
    (Invalid_argument "Ilog.add: non-consecutive seq") (fun () ->
      Ilog.add l ~seq:3 [ 2 ])

let test_ilog_iter_desc () =
  let l = Ilog.create () in
  for s = 1 to 5 do
    Ilog.add l ~seq:s [ s * 100 ]
  done;
  let seen = ref [] in
  Ilog.iter_desc l ~lo:0 ~hi:5 (fun s pages -> seen := (s, pages) :: !seen);
  Alcotest.(check (list int)) "newest first over the whole window"
    [ 5; 4; 3; 2; 1 ]
    (List.rev_map fst !seen);
  seen := [];
  Ilog.iter_desc l ~lo:2 ~hi:4 (fun s _ -> seen := (s, []) :: !seen);
  Alcotest.(check (list int)) "window excludes lo, includes hi" [ 4; 3 ]
    (List.rev_map fst !seen)

let test_ilog_newest_containing () =
  let l = Ilog.create () in
  Ilog.add l ~seq:1 [ 7 ];
  Ilog.add l ~seq:2 [ 8 ];
  Ilog.add l ~seq:3 [ 7; 9 ];
  Alcotest.(check int) "newest hit" 3 (Ilog.newest_containing l ~lo:0 ~upto:3 7);
  Alcotest.(check int) "bounded by upto" 1
    (Ilog.newest_containing l ~lo:0 ~upto:2 7);
  Alcotest.(check int) "lo excluded" 0
    (Ilog.newest_containing l ~lo:1 ~upto:2 7);
  Alcotest.(check int) "absent page" 0
    (Ilog.newest_containing l ~lo:0 ~upto:3 99)

let test_ilog_grow () =
  let l = Ilog.create () in
  for s = 1 to 300 do
    Ilog.add l ~seq:s [ s; s + 1 ]
  done;
  Alcotest.(check int) "grown past initial capacity" 300 (Ilog.hi l);
  Alcotest.(check int) "counts survive growth" 600 (Ilog.count_since l 0);
  Alcotest.(check int) "window count" 20 (Ilog.count_since l 290)

(* {1 Bench_log} *)

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let mk_log names =
  let log = Bench_log.create ~pr:99 ~label:"test" ~quick:true in
  List.iter
    (fun (name, text) ->
      ignore
        (Bench_log.measure log ~name (fun ppf ->
             Format.fprintf ppf "%s@." text)))
    names;
  log

let test_bench_log_roundtrip () =
  let log = mk_log [ ("alpha", "one"); ("beta", "two") ] in
  Bench_log.set_prof_invariant log true;
  let path = Filename.temp_file "bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bench_log.write log ~path;
      let loaded = Bench_log.load ~path in
      Alcotest.(check (list string))
        "names survive the roundtrip" [ "alpha"; "beta" ]
        (List.map (fun e -> e.Bench_log.e_name) loaded);
      List.iter2
        (fun (a : Bench_log.entry) (b : Bench_log.entry) ->
          Alcotest.(check string) "digest preserved" a.e_digest b.e_digest)
        (Bench_log.entries log) loaded)

(* Every baseline is derived from the current log's own entries, so no
   check depends on how long two separate runs took. The measured
   formatter spins for a millisecond of CPU time, so the recorded wall is
   never zero and halving it is a real slowdown. *)
let test_bench_log_gate () =
  let current = Bench_log.create ~pr:99 ~label:"test" ~quick:true in
  ignore
    (Bench_log.measure current ~name:"alpha" (fun ppf ->
         let t0 = Sys.time () in
         while Sys.time () -. t0 < 0.001 do
           ()
         done;
         Format.fprintf ppf "one@."));
  let own = Bench_log.entries current in
  let gate baseline =
    Bench_log.compare_against null_ppf ~baseline ~current ~tolerance:0.2
  in
  Alcotest.(check bool) "equal walls and digests pass" true (gate own);
  Alcotest.(check bool) "a baseline twice as fast fails on the total" false
    (gate
       (List.map
          (fun (e : Bench_log.entry) -> { e with e_wall_ms = e.e_wall_ms /. 2.0 })
          own));
  Alcotest.(check bool) "changed simulated output fails" false
    (gate
       (List.map
          (fun (e : Bench_log.entry) -> { e with e_digest = "0" ^ e.e_digest })
          own))

let test_bench_log_min_merge () =
  let a = mk_log [ ("alpha", "one") ] and b = mk_log [ ("alpha", "one") ] in
  let merged = Bench_log.min_merge a b in
  let wall l =
    match Bench_log.entries l with [ e ] -> e.Bench_log.e_wall_ms | _ -> nan
  in
  Alcotest.(check (float 0.0)) "keeps the faster measurement"
    (min (wall a) (wall b))
    (wall merged)

let tests =
  [
    Alcotest.test_case "prof: disabled is a no-op" `Quick
      test_prof_disabled_noop;
    Alcotest.test_case "prof: spans and ticks" `Quick test_prof_spans_and_ticks;
    Alcotest.test_case "prof: exception unwind" `Quick
      test_prof_exception_unwind;
    Alcotest.test_case "prof: no simulation perturbation" `Quick
      test_prof_does_not_perturb_simulation;
    Alcotest.test_case "ilog: count_since" `Quick test_ilog_count_since;
    Alcotest.test_case "ilog: dense seqs enforced" `Quick
      test_ilog_dense_seqs_only;
    Alcotest.test_case "ilog: iter_desc order" `Quick test_ilog_iter_desc;
    Alcotest.test_case "ilog: newest_containing" `Quick
      test_ilog_newest_containing;
    Alcotest.test_case "ilog: growth" `Quick test_ilog_grow;
    Alcotest.test_case "bench-log: json roundtrip" `Quick
      test_bench_log_roundtrip;
    Alcotest.test_case "bench-log: digest gate" `Quick test_bench_log_gate;
    Alcotest.test_case "bench-log: best-of-n merge" `Quick
      test_bench_log_min_merge;
  ]
