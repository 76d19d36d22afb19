(* KV session-cache tests: backend-independent final state (the version
   counters commute), checker-cleanliness of the object-granularity
   machinery, the false-sharing regression the sub-page allocator exists
   for, and conformance of every registry workload to the Workload.S
   contract. *)

open Dsm_apps.App_common
module Kv = Dsm_apps.Kv
module Stats = Dsm_sim.Stats
module Config = Dsm_sim.Config

let cfg procs = { Config.default with Config.nprocs = procs }

let run ?trace ?(digest = false) ?(procs = 4) ?(behavior = Kv.default_behavior)
    ?(size = Kv.tiny) ?(async = true) ?(backend = Config.Lrc) () =
  Kv.tmk ?trace ~digest
    { (cfg procs) with Config.backend }
    ~size ~behavior ~level:Base ~async

let backends =
  [
    (Config.Lrc, "lrc");
    (Config.Hlrc, "hlrc");
    (Config.Inval, "inval");
    (Config.Adaptive, "adpt");
  ]

(* Whatever the backend or the interleaving, the cache must
   end bit-identical: updates are per-key version increments serialized
   by the shard lock, so the final memory is a function of the per-key
   operation counts alone. *)
let test_digest_backends () =
  List.iter
    (fun procs ->
      let digests =
        List.map
          (fun (backend, bname) ->
            let r = run ~digest:true ~procs ~backend () in
            Alcotest.(check (float 1e-6))
              (Printf.sprintf "%s/%dp correct" bname procs)
              0.0 r.max_err;
            Alcotest.(check bool)
              (Printf.sprintf "%s/%dp digest nonempty" bname procs)
              true (r.digest <> "");
            r.digest)
          backends
      in
      match digests with
      | d :: rest ->
          List.iteri
            (fun i d' ->
              Alcotest.(check string)
                (Printf.sprintf "backend %d digest at %dp" (i + 1) procs)
                d d')
            rest
      | [] -> assert false)
    [ 1; 2; 4; 8 ]

(* Sync and async fetching must agree on results; the async path crosses
   the skip machinery (pages an earlier skip left accessible must be
   fetched synchronously — the regression behind split_unfaultable). *)
let test_sync_async_agree () =
  List.iter
    (fun (backend, bname) ->
      let rs = run ~digest:true ~procs:4 ~backend ~async:false ()
      and ra = run ~digest:true ~procs:4 ~backend ~async:true () in
      Alcotest.(check (float 1e-6)) (bname ^ " sync correct") 0.0 rs.max_err;
      Alcotest.(check string) (bname ^ " sync/async digest") rs.digest
        ra.digest)
    backends

(* An asynchronous Validate_w_sync of an object page that an earlier
   object skip left readable: its response can never be consumed by a
   fault, so it must be answered at the barrier, not left pending. *)
let test_async_wsync_after_skip () =
  let module Tmk = Dsm_tmk.Tmk in
  let module I = Tmk.Shm.I64_1 in
  List.iter
    (fun (backend, bname) ->
      let sys = Tmk.make { (cfg 2) with Config.backend } in
      let objs = Tmk.Alloc.objs sys "objs" ~obj_size:64 ~count:16 in
      let obj i = [ I.section objs (8 * i, (8 * i) + 7, 1) ] in
      let seen = ref (-1) in
      Tmk.run sys (fun t ->
          if Tmk.pid t = 0 then I.set t objs 0 42;
          Tmk.barrier t;
          if Tmk.pid t = 1 then begin
            Tmk.validate t (obj 1) Tmk.Read;
            Tmk.validate_w_sync t ~async:true (obj 0) Tmk.Read
          end;
          Tmk.barrier t;
          if Tmk.pid t = 1 then seen := I.get t objs 0);
      Alcotest.(check int) (bname ^ ": P1 reads P0's write") 42 !seen)
    [ (Config.Lrc, "lrc"); (Config.Hlrc, "hlrc") ]

let test_checker_clean () =
  let sink = Dsm_trace.Sink.create ~nprocs:4 () in
  let r = run ~trace:sink ~procs:4 () in
  Alcotest.(check (float 1e-6)) "correct" 0.0 r.max_err;
  Alcotest.(check bool) "object skips exercised" true
    (r.stats.Stats.obj_skips > 0);
  Alcotest.(check int) "no violations" 0
    (List.length (Dsm_trace.Check.run_sink sink))

(* The allocator's reason to exist: under the write-heavy skewed mix,
   packed 64-byte objects at page granularity ping-pong whole pages
   between shard owners; per-object staleness must shed messages. *)
let test_false_sharing_regression () =
  let b mix granularity =
    { Kv.default_behavior with Kv.mix; granularity }
  in
  let obj = run ~procs:8 ~behavior:(b "write90" Dsm_tmk.Tmk.Alloc.Object) ()
  and page = run ~procs:8 ~behavior:(b "write90" Dsm_tmk.Tmk.Alloc.Page) () in
  Alcotest.(check (float 1e-6)) "object correct" 0.0 obj.max_err;
  Alcotest.(check (float 1e-6)) "page correct" 0.0 page.max_err;
  Alcotest.(check bool) "object skips fire" true
    (obj.stats.Stats.obj_skips > 0);
  Alcotest.(check int) "page control never skips" 0
    page.stats.Stats.obj_skips;
  Alcotest.(check bool)
    (Printf.sprintf "fewer messages at object granularity (%d < %d)"
       obj.stats.Stats.messages page.stats.Stats.messages)
    true
    (obj.stats.Stats.messages < page.stats.Stats.messages)

(* Regression pin of the object-granularity paths at a size the perf
   goldens do not reach: [small] at 8 processors has 128 object pages
   (the goldens' [tiny] at 4 has 8). Host-side rewrites of the slot
   tracking must leave every virtual result where it is. *)
let test_small_pin () =
  List.iter
    (fun (backend, bname, mix, skips, msgs, time_us, digest) ->
      let r =
        Kv.tmk ~digest:true
          { (cfg 8) with Config.backend }
          ~size:Kv.small
          ~behavior:{ Kv.default_behavior with Kv.mix }
          ~level:Base ~async:true
      in
      let what = Printf.sprintf "%s/%s" bname mix in
      Alcotest.(check int) (what ^ " obj_skips") skips r.stats.Stats.obj_skips;
      Alcotest.(check int) (what ^ " messages") msgs r.stats.Stats.messages;
      Alcotest.(check string) (what ^ " time_us") time_us
        (Printf.sprintf "%.3f" r.time_us);
      Alcotest.(check string) (what ^ " digest") digest r.digest)
    [
      (Config.Lrc, "lrc", "write90", 3116, 62316, "2051986.112",
       "495271cabb198e0879206d9a0875e058");
      (Config.Lrc, "lrc", "read90", 3519, 29914, "2049076.124",
       "f929ad4a34893c4124e0273cba089ec0");
      (Config.Hlrc, "hlrc", "write90", 2731, 35779, "2052513.848",
       "495271cabb198e0879206d9a0875e058");
      (Config.Hlrc, "hlrc", "read90", 3106, 25606, "2048251.676",
       "f929ad4a34893c4124e0273cba089ec0");
    ]

let test_pvm () =
  let r = Kv.pvm (cfg 4) ~size:Kv.tiny ~behavior:Kv.default_behavior in
  Alcotest.(check (float 1e-6)) "pvm correct" 0.0 r.max_err;
  Alcotest.(check bool) "nops positive" true (r.nops > 0);
  match r.latencies_us with
  | None -> Alcotest.fail "pvm reports no latencies"
  | Some lats ->
      Alcotest.(check int) "one latency per op" r.nops (Array.length lats);
      let sorted = ref true
      and causal = ref true in
      Array.iteri
        (fun i l ->
          if i > 0 && l < lats.(i - 1) then sorted := false;
          if l < Kv.tiny.Kv.op_cost -. 1e-9 then causal := false)
        lats;
      Alcotest.(check bool) "latencies ascending" true !sorted;
      Alcotest.(check bool) "latencies >= service time" true !causal

let test_tmk_latencies () =
  let r = run ~procs:4 () in
  Alcotest.(check bool) "nops positive" true (r.nops > 0);
  match r.latencies_us with
  | None -> Alcotest.fail "tmk reports no latencies"
  | Some lats ->
      Alcotest.(check int) "one latency per op" r.nops (Array.length lats);
      Array.iteri
        (fun i l ->
          if i > 0 && l < lats.(i - 1) then
            Alcotest.fail "latencies not ascending";
          if l <= 0.0 then Alcotest.fail "non-positive latency")
        lats

(* {1 Knob validation} *)

let knob key value = Kv.with_knob Kv.default_behavior ~key ~value

let test_knobs_accept () =
  List.iter
    (fun (key, value) ->
      match knob key value with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (key ^ "=" ^ value ^ " rejected: " ^ e))
    [
      ("mix", "write90");
      ("mix", "read50");
      ("skew", "0");
      ("skew", "1.5");
      ("sessions", "256");
      ("granularity", "page");
      ("granularity", "object");
      ("keys", "1024");
      ("shards", "8");
    ]

let test_knobs_reject () =
  List.iter
    (fun (key, value) ->
      match knob key value with
      | Ok _ -> Alcotest.fail (key ^ "=" ^ value ^ " accepted")
      | Error e ->
          (* the standard error format names the offending field *)
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
            at 0
          in
          Alcotest.(check bool)
            (key ^ " error names the field: " ^ e)
            true (contains e key))
    [
      ("mix", "read99");
      ("skew", "-1");
      ("skew", "3");
      ("sessions", "0");
      ("granularity", "cacheline");
      ("keys", "1000");
      ("keys", "8");
      ("shards", "0");
      ("nope", "1");
    ]

let test_alloc_rejects () =
  let sys = Dsm_tmk.Tmk.make (cfg 2) in
  List.iter
    (fun (obj_size, count, label) ->
      match Dsm_tmk.Tmk.Alloc.objs sys "bad" ~obj_size ~count with
      | _ -> Alcotest.fail (label ^ ": accepted")
      | exception Invalid_argument _ -> ())
    [ (12, 8, "obj_size not a multiple of 8"); (64, 0, "count zero") ]

(* {1 Workload.S conformance over the whole registry} *)

let test_registry_conformance () =
  Alcotest.(check int) "seven workloads" 7
    (List.length Dsm_apps.Registry.all);
  List.iter
    (fun (name, m) ->
      let module W = (val m : Dsm_apps.Workload.S) in
      (* registry keys are CLI identifiers; [W.name] is the display name *)
      Alcotest.(check bool) (name ^ " has a display name") true (W.name <> "");
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (name ^ " provides " ^ s)
            true
            (List.mem_assoc s W.sizes))
        [ "large"; "small" ];
      List.iter
        (fun (sname, size) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s seq time positive" name sname)
            true
            (W.seq_time_us size > 0.0);
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s size name nonempty" name sname)
            true
            (W.size_name size <> ""))
        W.sizes;
      Alcotest.(check bool) (name ^ " has levels") true (W.levels <> []);
      (match W.with_knob W.default_behavior ~key:"no-such-knob" ~value:"1" with
      | Ok _ -> Alcotest.fail (name ^ " accepted an unknown knob")
      | Error e ->
          Alcotest.(check bool)
            (name ^ " unknown-knob error mentions the key")
            true
            (String.length e > 0));
      List.iter
        (fun (key, doc) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s knob %s documented" name key)
            true
            (key <> "" && doc <> ""))
        W.knob_doc)
    Dsm_apps.Registry.all

let tests =
  [
    Alcotest.test_case "digests backend-independent at 1/2/4/8p" `Slow
      test_digest_backends;
    Alcotest.test_case "sync and async agree per backend" `Slow
      test_sync_async_agree;
    Alcotest.test_case "async validate_w_sync after an object skip" `Quick
      test_async_wsync_after_skip;
    Alcotest.test_case "traced run checker-clean, skips exercised" `Quick
      test_checker_clean;
    Alcotest.test_case "object granularity sheds false-sharing traffic" `Slow
      test_false_sharing_regression;
    Alcotest.test_case "small 8p object pages pinned (lrc, hlrc)" `Slow
      test_small_pin;
    Alcotest.test_case "pvm baseline correct with sane latencies" `Quick
      test_pvm;
    Alcotest.test_case "tmk latencies sorted and positive" `Quick
      test_tmk_latencies;
    Alcotest.test_case "knobs accept valid values" `Quick test_knobs_accept;
    Alcotest.test_case "knobs reject bad values naming the field" `Quick
      test_knobs_reject;
    Alcotest.test_case "Alloc.objs rejects bad geometry" `Quick
      test_alloc_rejects;
    Alcotest.test_case "registry conforms to Workload.S" `Quick
      test_registry_conformance;
  ]
