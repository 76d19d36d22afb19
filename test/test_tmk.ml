(* Protocol-level integration tests of the TreadMarks run-time and the
   augmented interface. *)

module Tmk = Dsm_tmk.Tmk
module Shm = Dsm_tmk.Shm
module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats

let cfg ?(nprocs = 4) ?(page_size = 256) () =
  { Config.default with nprocs; page_size }

let total sys = Tmk.total_stats sys

let test_barrier_propagation () =
  let sys = Tmk.make (cfg ()) in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 32 ] in
  let seen = Array.make 4 0.0 in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      if p = 0 then Shm.F64_1.set t a 5 42.0;
      Tmk.barrier t;
      seen.(p) <- Shm.F64_1.get t a 5);
  Array.iteri
    (fun p v -> Alcotest.(check (float 0.0)) (Printf.sprintf "p%d" p) 42.0 v)
    seen

let test_no_fault_without_notice () =
  let sys = Tmk.make (cfg ()) in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 1024 ] in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      (* disjoint pages, no sharing: after the barrier nobody faults on
         their own data *)
      Shm.F64_1.set t a (p * 64) 1.0;
      Tmk.barrier t;
      ignore (Shm.F64_1.get t a (p * 64)));
  let st = total sys in
  (* only the initial write faults (one per processor) *)
  Alcotest.(check int) "only first-write faults" 4 st.Stats.segv

let test_multi_writer_merge () =
  (* four processors write disjoint words of the same page concurrently *)
  let sys = Tmk.make (cfg ()) in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 32 ] (* one 256B page *) in
  let ok = ref true in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      Shm.F64_1.set t a p (float_of_int (p + 1));
      Tmk.barrier t;
      for q = 0 to 3 do
        if Shm.F64_1.get t a q <> float_of_int (q + 1) then ok := false
      done);
  Alcotest.(check bool) "all writes merged" true !ok

let test_lock_migratory () =
  (* a counter incremented under a lock by each processor in turn *)
  let sys = Tmk.make (cfg ()) in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 4 ] in
  let final = ref 0.0 in
  Tmk.run sys (fun t ->
      Tmk.lock_acquire t 0;
      Shm.F64_1.set t a 0 (Shm.F64_1.get t a 0 +. 1.0);
      Tmk.lock_release t 0;
      Tmk.barrier t;
      if Tmk.pid t = 0 then final := Shm.F64_1.get t a 0);
  Alcotest.(check (float 0.0)) "counter" 4.0 !final;
  Alcotest.(check int) "four acquires" 4 (total sys).Stats.lock_acquires

let test_lock_chain_ordering () =
  (* regression for the interval-entitlement bug: two half-page sections
     guarded by different locks, staggered across four processors; every
     slot must reach 4 everywhere *)
  let sys = Tmk.make { Config.default with nprocs = 4; page_size = 32 } in
  let b = Tmk.Alloc.array sys "b" ~dims:[ 8 ] in
  let bad = ref 0 in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      for _rep = 1 to 2 do
        for k = 2 * p to (2 * p) + 1 do
          Shm.I64_1.set t b k 0
        done;
        Tmk.barrier t;
        for step = 0 to 3 do
          let s = (p + step) mod 4 in
          Tmk.lock_acquire t s;
          for k = 2 * s to (2 * s) + 1 do
            Shm.I64_1.set t b k (Shm.I64_1.get t b k + 1)
          done;
          Tmk.lock_release t s
        done;
        Tmk.barrier t;
        for k = 0 to 7 do
          if Shm.I64_1.get t b k <> 4 then incr bad
        done;
        Tmk.barrier t
      done);
  Alcotest.(check int) "all slots correct" 0 !bad

let test_write_all_skips_twins () =
  let sys = Tmk.make (cfg ()) in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 128 ] in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      let lo = p * 32 in
      for _it = 1 to 3 do
        Tmk.validate t [ Shm.F64_1.section a (lo, lo + 31, 1) ] Tmk.Write_all;
        for k = lo to lo + 31 do
          Shm.F64_1.set t a k (float_of_int (k * 2))
        done;
        Tmk.barrier t
      done;
      (* read a neighbour's value to force data movement *)
      let q = (p + 1) mod 4 in
      Alcotest.(check (float 0.0))
        "neighbour data" (float_of_int (q * 32 * 2))
        (Shm.F64_1.get t a (q * 32)));
  let st = total sys in
  Alcotest.(check int) "no twins" 0 st.Stats.twins;
  Alcotest.(check int) "no diffs created" 0 st.Stats.diffs_created

let test_read_write_all_supersede () =
  (* IS pattern on a full page: accumulated overlapping updates fetched as
     one full copy instead of per-writer diffs *)
  let sys = Tmk.make (cfg ()) in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 32 ] in
  let sec = [ Shm.I64_1.section a (0, 31, 1) ] in
  let ok = ref true in
  Tmk.run sys (fun t ->
      Tmk.lock_acquire t 0;
      Tmk.validate t sec Tmk.Read_write_all;
      for k = 0 to 31 do
        Shm.I64_1.set t a k (Shm.I64_1.get t a k + 1)
      done;
      Tmk.lock_release t 0;
      Tmk.barrier t;
      Tmk.validate t sec Tmk.Read;
      for k = 0 to 31 do
        if Shm.I64_1.get t a k <> 4 then ok := false
      done);
  Alcotest.(check bool) "sums correct" true !ok;
  Alcotest.(check int) "no twins" 0 (total sys).Stats.twins

let test_push_exchange () =
  (* a miniature Jacobi boundary push between two processors *)
  let c = cfg ~nprocs:2 () in
  let sys = Tmk.make c in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 64 ] (* two pages of 32 *) in
  let read_sections =
    [|
      [ Shm.F64_1.section a (0, 32, 1) ] (* p0 reads its half + boundary *);
      [ Shm.F64_1.section a (31, 63, 1) ];
    |]
  and write_sections =
    [| [ Shm.F64_1.section a (0, 31, 1) ]; [ Shm.F64_1.section a (32, 63, 1) ] |]
  in
  let got = Array.make 2 0.0 in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      let lo = p * 32 in
      for k = lo to lo + 31 do
        Shm.F64_1.set t a k (float_of_int (k + 100))
      done;
      Tmk.push t ~read_sections ~write_sections;
      (* each reads the element just over its boundary *)
      got.(p) <-
        (if p = 0 then Shm.F64_1.get t a 32 else Shm.F64_1.get t a 31));
  Alcotest.(check (float 0.0)) "p0 got pushed value" 132.0 got.(0);
  Alcotest.(check (float 0.0)) "p1 got pushed value" 131.0 got.(1);
  let st = total sys in
  (* the only barrier is the implicit TreadMarks exit barrier *)
  Alcotest.(check int) "no explicit barriers" 2 st.Stats.barriers;
  Alcotest.(check int) "two pushes" 2 st.Stats.pushes;
  (* only the two first-touch write faults; the pushed reads do not fault *)
  Alcotest.(check int) "no faults beyond first touch" 2 st.Stats.segv

let test_push_then_barrier_consistency () =
  (* data not covered by the push becomes consistent at the next barrier *)
  let c = cfg ~nprocs:2 () in
  let sys = Tmk.make c in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 64 ] in
  let read_sections =
    [| [ Shm.F64_1.section a (32, 32, 1) ]; [ Shm.F64_1.section a (31, 31, 1) ] |]
  and write_sections =
    [| [ Shm.F64_1.section a (0, 31, 1) ]; [ Shm.F64_1.section a (32, 63, 1) ] |]
  in
  let late = ref 0.0 in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      let lo = p * 32 in
      for k = lo to lo + 31 do
        Shm.F64_1.set t a k (float_of_int k)
      done;
      Tmk.push t ~read_sections ~write_sections;
      Tmk.barrier t;
      (* beyond the pushed element, restored by the barrier *)
      if p = 0 then late := Shm.F64_1.get t a 50);
  Alcotest.(check (float 0.0)) "full consistency after barrier" 50.0 !late

let test_validate_w_sync_lock () =
  (* the piggy-backed request is answered on the lock grant: no faults *)
  let sys = Tmk.make (cfg ()) in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 32 ] in
  let sec = [ Shm.I64_1.section a (0, 31, 1) ] in
  let ok = ref true in
  Tmk.run sys (fun t ->
      Tmk.validate_w_sync t sec Tmk.Read_write_all;
      Tmk.lock_acquire t 0;
      for k = 0 to 31 do
        Shm.I64_1.set t a k (Shm.I64_1.get t a k + 1)
      done;
      Tmk.lock_release t 0;
      Tmk.barrier t;
      Tmk.validate_w_sync t sec Tmk.Read;
      Tmk.barrier t;
      for k = 0 to 31 do
        if Shm.I64_1.get t a k <> 4 then ok := false
      done);
  Alcotest.(check bool) "values" true !ok;
  Alcotest.(check int) "no faults at all" 0 (total sys).Stats.segv

let test_wsync_broadcast () =
  (* one producer, all others request the same section at a barrier:
     the run-time broadcasts *)
  let sys = Tmk.make (cfg ~nprocs:8 ()) in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 32 ] in
  let sec = [ Shm.F64_1.section a (0, 31, 1) ] in
  let ok = ref true in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      for it = 1 to 3 do
        if p = 0 then
          for k = 0 to 31 do
            Shm.F64_1.set t a k (float_of_int (it * k))
          done
        else Tmk.validate_w_sync t sec Tmk.Read;
        Tmk.barrier t;
        if p > 0 then
          for k = 0 to 31 do
            if Shm.F64_1.get t a k <> float_of_int (it * k) then ok := false
          done;
        Tmk.barrier t
      done);
  Alcotest.(check bool) "values" true !ok;
  Alcotest.(check bool) "broadcasts happened" true
    ((total sys).Stats.broadcasts >= 2)

let test_async_wsync_barrier () =
  (* the asynchronous Validate_w_sync does not wait at the departure; the
     fault consumes the piggy-backed response *)
  let sys = Tmk.make (cfg ~nprocs:4 ()) in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 32 ] in
  let sec = [ Shm.F64_1.section a (0, 31, 1) ] in
  let ok = ref true in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      for it = 1 to 3 do
        if p = 0 then
          for k = 0 to 31 do
            Shm.F64_1.set t a k (float_of_int ((it * 100) + k))
          done
        else Tmk.validate_w_sync t ~async:true sec Tmk.Read;
        Tmk.barrier t;
        if p > 0 then
          for k = 0 to 31 do
            if Shm.F64_1.get t a k <> float_of_int ((it * 100) + k) then
              ok := false
          done;
        Tmk.barrier t
      done);
  Alcotest.(check bool) "async w_sync values" true !ok

let test_async_wsync_write_all () =
  (* asynchronous READ&WRITE_ALL through a lock grant records the WRITE_ALL
     ranges so the fault handler skips twin creation *)
  let sys = Tmk.make (cfg ()) in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 32 ] in
  let sec = [ Shm.I64_1.section a (0, 31, 1) ] in
  let ok = ref true in
  Tmk.run sys (fun t ->
      Tmk.validate_w_sync t ~async:true sec Tmk.Read_write_all;
      Tmk.lock_acquire t 0;
      for k = 0 to 31 do
        Shm.I64_1.set t a k (Shm.I64_1.get t a k + 1)
      done;
      Tmk.lock_release t 0;
      Tmk.barrier t;
      Tmk.validate t sec Tmk.Read;
      for k = 0 to 31 do
        if Shm.I64_1.get t a k <> 4 then ok := false
      done);
  Alcotest.(check bool) "values" true !ok;
  Alcotest.(check int) "no twins" 0 (total sys).Stats.twins

let test_exit_barrier_consistency () =
  (* a trailing Push leaves partial pages; the implicit exit barrier must
     restore full consistency for a later reader *)
  let c = cfg ~nprocs:2 () in
  let sys = Tmk.make c in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 64 ] in
  let read_sections =
    [| [ Shm.F64_1.section a (32, 32, 1) ]; [ Shm.F64_1.section a (31, 31, 1) ] |]
  and write_sections =
    [| [ Shm.F64_1.section a (0, 31, 1) ]; [ Shm.F64_1.section a (32, 63, 1) ] |]
  in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      let lo = p * 32 in
      for k = lo to lo + 31 do
        Shm.F64_1.set t a k (float_of_int (k * 2))
      done;
      Tmk.push t ~read_sections ~write_sections
      (* no explicit barrier: the run's exit barrier must clean up *));
  let v = ref 0.0 in
  Tmk.run sys (fun t -> if Tmk.pid t = 0 then v := Shm.F64_1.get t a 50);
  Alcotest.(check (float 0.0)) "restored by exit barrier" 100.0 !v

let test_async_dedup () =
  (* a second async validate for the same pending pages sends nothing *)
  let sys = Tmk.make (cfg ~nprocs:2 ()) in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 32 ] in
  let sec = [ Shm.F64_1.section a (0, 31, 1) ] in
  let msgs = ref 0 in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      if p = 0 then
        for k = 0 to 31 do
          Shm.F64_1.set t a k 1.0
        done;
      Tmk.barrier t;
      if p = 1 then begin
        Tmk.validate t ~async:true sec Tmk.Read;
        let before = (total sys).Stats.messages in
        Tmk.validate t ~async:true sec Tmk.Read;
        msgs := (total sys).Stats.messages - before;
        ignore (Shm.F64_1.get t a 3)
      end);
  Alcotest.(check int) "no duplicate requests" 0 !msgs

let test_async_validate () =
  let sys = Tmk.make (cfg ~nprocs:2 ()) in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 64 ] in
  let v = ref 0.0 in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      if p = 0 then
        for k = 0 to 31 do
          Shm.F64_1.set t a k (float_of_int (k * 3))
        done;
      Tmk.barrier t;
      if p = 1 then begin
        Tmk.validate t ~async:true [ Shm.F64_1.section a (0, 31, 1) ] Tmk.Read;
        Tmk.charge t 1000.0 (* overlapped computation *);
        v := Shm.F64_1.get t a 17
      end);
  Alcotest.(check (float 0.0)) "async data correct" 51.0 !v;
  (* the consuming access still faults (Section 3.2.3) *)
  Alcotest.(check bool) "fault consumed response" true
    ((total sys).Stats.segv >= 1)

let test_diff_accumulation () =
  (* every processor updates the same page in lock order; a reader that
     fetches at the end receives one diff per writer *)
  let sys = Tmk.make (cfg ()) in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 32 ] in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      Tmk.lock_acquire t 0;
      Shm.I64_1.set t a p 1;
      Tmk.lock_release t 0;
      Tmk.barrier t;
      if p = 3 then ignore (Shm.I64_1.get t a 0));
  let st = total sys in
  (* p3 applied diffs from the other writers it had not seen data from *)
  Alcotest.(check bool) "multiple diffs applied" true (st.Stats.diffs_applied >= 3)

let test_calibration_via_runtime () =
  let c = { Config.default with nprocs = 8 } in
  let sys = Tmk.make c in
  let bt = ref 0.0 in
  Tmk.run sys (fun t ->
      Tmk.barrier t;
      (* the master departs a wire-hop earlier; the published figure is the
         client-side time *)
      if Tmk.pid t = 1 then bt := Tmk.time t);
  Alcotest.(check (float 1.0)) "8-proc barrier = 893us" 893.0 !bt;
  let sys2 = Tmk.make c in
  let lt = ref 0.0 in
  Tmk.run sys2 (fun t ->
      if Tmk.pid t = 1 then begin
        Tmk.lock_acquire t 0;
        lt := Tmk.time t;
        Tmk.lock_release t 0
      end);
  Alcotest.(check (float 1.0)) "free remote lock = 427us" 427.0 !lt

let test_lock_mutual_exclusion () =
  let sys = Tmk.make (cfg ()) in
  let inside = ref 0
  and max_inside = ref 0 in
  Tmk.run sys (fun t ->
      for _i = 1 to 3 do
        Tmk.lock_acquire t 7;
        incr inside;
        if !inside > !max_inside then max_inside := !inside;
        Dsm_sim.Engine.yield ();
        decr inside;
        Tmk.lock_release t 7
      done);
  Alcotest.(check int) "never two holders" 1 !max_inside

let tests =
  [
    Alcotest.test_case "barrier propagation" `Quick test_barrier_propagation;
    Alcotest.test_case "no fault without notice" `Quick test_no_fault_without_notice;
    Alcotest.test_case "multi-writer merge" `Quick test_multi_writer_merge;
    Alcotest.test_case "lock migratory counter" `Quick test_lock_migratory;
    Alcotest.test_case "lock chain ordering (regression)" `Quick
      test_lock_chain_ordering;
    Alcotest.test_case "WRITE_ALL skips twins" `Quick test_write_all_skips_twins;
    Alcotest.test_case "READ&WRITE_ALL supersede" `Quick
      test_read_write_all_supersede;
    Alcotest.test_case "push exchange" `Quick test_push_exchange;
    Alcotest.test_case "push then barrier restores consistency" `Quick
      test_push_then_barrier_consistency;
    Alcotest.test_case "validate_w_sync on lock grant" `Quick
      test_validate_w_sync_lock;
    Alcotest.test_case "wsync broadcast at barrier" `Quick test_wsync_broadcast;
    Alcotest.test_case "async validate" `Quick test_async_validate;
    Alcotest.test_case "async w_sync at barrier" `Quick test_async_wsync_barrier;
    Alcotest.test_case "async w_sync READ&WRITE_ALL" `Quick
      test_async_wsync_write_all;
    Alcotest.test_case "exit barrier restores push pages" `Quick
      test_exit_barrier_consistency;
    Alcotest.test_case "async request dedup" `Quick test_async_dedup;
    Alcotest.test_case "diff accumulation" `Quick test_diff_accumulation;
    Alcotest.test_case "calibration (lock, barrier)" `Quick
      test_calibration_via_runtime;
    Alcotest.test_case "lock mutual exclusion" `Quick test_lock_mutual_exclusion;
  ]
