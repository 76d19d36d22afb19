(* Message-passing substrate and the mini-HPF run-time. *)

module Mp = Dsm_mp.Mp
module Hpf = Dsm_hpf.Hpf
module Config = Dsm_sim.Config

let cfg n = { Config.default with Config.nprocs = n }

let test_send_recv () =
  let sys = Mp.make (cfg 2) in
  let got = ref [||] in
  Mp.run sys (fun t ->
      if Mp.pid t = 0 then Mp.send_floats t ~dst:1 ~tag:5 [| 1.0; 2.0; 3.0 |]
      else got := Mp.recv_floats t ~src:0 ~tag:5);
  Alcotest.(check (array (float 0.0))) "payload" [| 1.0; 2.0; 3.0 |] !got

let test_tag_matching () =
  let sys = Mp.make (cfg 2) in
  let a = ref 0.0
  and b = ref 0.0 in
  Mp.run sys (fun t ->
      if Mp.pid t = 0 then begin
        Mp.send_floats t ~dst:1 ~tag:1 [| 10.0 |];
        Mp.send_floats t ~dst:1 ~tag:2 [| 20.0 |]
      end
      else begin
        (* receive in reverse tag order *)
        b := (Mp.recv_floats t ~src:0 ~tag:2).(0);
        a := (Mp.recv_floats t ~src:0 ~tag:1).(0)
      end);
  Alcotest.(check (float 0.0)) "tag 1" 10.0 !a;
  Alcotest.(check (float 0.0)) "tag 2" 20.0 !b

let test_fifo_per_tag () =
  let sys = Mp.make (cfg 2) in
  let order = ref [] in
  Mp.run sys (fun t ->
      if Mp.pid t = 0 then
        List.iter (fun v -> Mp.send_floats t ~dst:1 ~tag:3 [| v |]) [ 1.; 2.; 3. ]
      else
        for _i = 1 to 3 do
          order := (Mp.recv_floats t ~src:0 ~tag:3).(0) :: !order
        done);
  Alcotest.(check (list (float 0.0))) "fifo" [ 1.; 2.; 3. ] (List.rev !order)

let test_bcast () =
  List.iter
    (fun n ->
      let sys = Mp.make (cfg n) in
      let got = Array.make n 0.0 in
      Mp.run sys (fun t ->
          let payload = if Mp.pid t = 2 mod n then [| 7.5 |] else [||] in
          got.(Mp.pid t) <- (Mp.bcast_floats t ~root:(2 mod n) ~tag:1 payload).(0));
      Array.iteri
        (fun p v ->
          Alcotest.(check (float 0.0)) (Printf.sprintf "n=%d p=%d" n p) 7.5 v)
        got)
    [ 2; 3; 4; 8 ]

let test_allreduce () =
  let n = 8 in
  let sys = Mp.make (cfg n) in
  let sums = Array.make n 0.0
  and maxs = Array.make n 0.0 in
  Mp.run sys (fun t ->
      let p = Mp.pid t in
      sums.(p) <- (Mp.allreduce_sum t ~tag:10 [| float_of_int (p + 1) |]).(0);
      maxs.(p) <- (Mp.allreduce_max t ~tag:20 [| float_of_int (p * p) |]).(0));
  Array.iter (fun v -> Alcotest.(check (float 0.0)) "sum 36" 36.0 v) sums;
  Array.iter (fun v -> Alcotest.(check (float 0.0)) "max 49" 49.0 v) maxs

let test_sendrecv_ring () =
  let n = 4 in
  let sys = Mp.make (cfg n) in
  let got = Array.make n 0.0 in
  Mp.run sys (fun t ->
      let p = Mp.pid t in
      let r =
        Mp.sendrecv_floats t
          ~dst:((p + 1) mod n)
          ~src:((p + n - 1) mod n)
          ~tag:9
          [| float_of_int p |]
      in
      got.(p) <- r.(0));
  Array.iteri
    (fun p v ->
      Alcotest.(check (float 0.0)) "from left" (float_of_int ((p + n - 1) mod n)) v)
    got

let test_barrier () =
  let sys = Mp.make (cfg 8) in
  let after = ref 0 in
  Mp.run sys (fun t ->
      Mp.barrier t;
      incr after);
  Alcotest.(check int) "all passed" 8 !after

let test_mp_timing () =
  (* with interrupts disabled (no interrupt charge at receive), a one-way
     small message costs less than half the TreadMarks roundtrip *)
  let sys = Mp.make (cfg 2) in
  let t1 = ref 0.0 in
  Mp.run sys (fun t ->
      if Mp.pid t = 0 then Mp.send_floats t ~dst:1 ~tag:1 [| 1.0 |]
      else begin
        ignore (Mp.recv_floats t ~src:0 ~tag:1);
        t1 := Mp.elapsed sys
      end);
  Alcotest.(check bool) "one-way under 200us" true (!t1 < 200.0)

(* {1 Collective properties, fault-free and under network faults}

   One program exercising every collective: returns the per-processor
   payload outputs, the elapsed virtual time and the summed statistics. *)

let collective_program n payload cfg =
  let sys = Mp.make cfg in
  let out = Array.make n [||] in
  Mp.run sys (fun t ->
      let p = Mp.pid t in
      let mine = Array.map (fun x -> x +. float_of_int p) payload in
      let b =
        Mp.bcast_floats t ~root:0 ~tag:1 (if p = 0 then payload else [||])
      in
      let s = Mp.allreduce_sum t ~tag:2 mine in
      let r =
        Mp.sendrecv_floats t
          ~dst:((p + 1) mod n)
          ~src:((p + n - 1) mod n)
          ~tag:3 mine
      in
      Mp.barrier t;
      out.(p) <- Array.concat [ b; s; r ]);
  (out, Mp.elapsed sys, Mp.total_stats sys)

let faulty_mp_cfg n =
  {
    (cfg n) with
    Config.net_drop = 0.05;
    net_dup = 0.03;
    net_jitter_us = 25.0;
    net_seed = 3;
  }

let qcheck_collectives =
  (* for any processor count and payload: collectives over the faulty
     network return exactly the payloads of the exactly-once network, and
     repeated faulty runs are bit-identical (payloads, clocks, statistics) *)
  let gen =
    QCheck.Gen.(
      pair (int_range 2 8)
        (array_size (int_range 1 32)
           (map float_of_int (int_range (-1000) 1000))))
  in
  QCheck.Test.make ~count:20 ~name:"mp collectives: deterministic under faults"
    (QCheck.make gen)
    (fun (n, payload) ->
      let c_out, c_t, _ = collective_program n payload (cfg n) in
      let f_out, f_t, f_s = collective_program n payload (faulty_mp_cfg n) in
      let f_out', f_t', f_s' =
        collective_program n payload (faulty_mp_cfg n)
      in
      c_out = f_out && f_out = f_out' && f_t = f_t' && f_s = f_s'
      && f_t >= c_t)

let test_collectives_under_faults () =
  (* a fixed large run: the faulty network actually loses messages, every
     loss is recovered (payloads identical to the exactly-once run), and
     recovery costs time *)
  let n = 8 in
  let payload = Array.init 64 (fun i -> float_of_int i *. 0.5) in
  let c_out, c_t, c_s = collective_program n payload (cfg n) in
  let f_out, f_t, f_s = collective_program n payload (faulty_mp_cfg n) in
  Alcotest.(check bool) "payloads identical" true (c_out = f_out);
  Alcotest.(check bool) "faults injected" true
    (f_s.Dsm_sim.Stats.dropped > 0 || f_s.Dsm_sim.Stats.duplicates > 0);
  Alcotest.(check int) "every drop timed out" f_s.Dsm_sim.Stats.dropped
    f_s.Dsm_sim.Stats.timeouts;
  Alcotest.(check int) "every timeout retransmitted" f_s.Dsm_sim.Stats.timeouts
    f_s.Dsm_sim.Stats.retransmits;
  Alcotest.(check bool) "recovery costs time" true (f_t > c_t);
  Alcotest.(check int) "fault-free run is clean" 0
    (c_s.Dsm_sim.Stats.dropped + c_s.Dsm_sim.Stats.duplicates
    + c_s.Dsm_sim.Stats.retransmits + c_s.Dsm_sim.Stats.timeouts)

let test_hpf_shift () =
  let n = 4 in
  let sys = Mp.make (cfg n) in
  let oks = Array.make n false in
  Mp.run sys (fun t ->
      let p = Mp.pid t in
      let fl, fr =
        Hpf.shift_exchange t ~tag:2
          ~left:[| float_of_int (p * 10) |]
          ~right:[| float_of_int ((p * 10) + 1) |]
      in
      let ok_l =
        match fl with
        | Some x -> p > 0 && x.(0) = float_of_int (((p - 1) * 10) + 1)
        | None -> p = 0
      in
      let ok_r =
        match fr with
        | Some x -> p < n - 1 && x.(0) = float_of_int ((p + 1) * 10)
        | None -> p = n - 1
      in
      oks.(p) <- ok_l && ok_r);
  Array.iteri
    (fun p ok -> Alcotest.(check bool) (Printf.sprintf "p%d" p) true ok)
    oks

let test_hpf_costs_more () =
  (* generic section packing makes the HPF broadcast dearer than raw MP *)
  let run f =
    let sys = Mp.make (cfg 4) in
    Mp.run sys (fun t -> ignore (f t));
    Mp.elapsed sys
  in
  let raw = run (fun t -> Mp.bcast_floats t ~root:0 ~tag:1 (Array.make 256 1.0)) in
  let hpf = run (fun t -> Hpf.bcast_section t ~root:0 ~tag:1 (Array.make 256 1.0)) in
  Alcotest.(check bool) "hpf > raw" true (hpf > raw)

let tests =
  [
    Alcotest.test_case "send/recv" `Quick test_send_recv;
    Alcotest.test_case "tag matching" `Quick test_tag_matching;
    Alcotest.test_case "fifo per tag" `Quick test_fifo_per_tag;
    Alcotest.test_case "bcast (2,3,4,8 procs)" `Quick test_bcast;
    Alcotest.test_case "allreduce sum/max" `Quick test_allreduce;
    Alcotest.test_case "sendrecv ring" `Quick test_sendrecv_ring;
    Alcotest.test_case "barrier" `Quick test_barrier;
    Alcotest.test_case "mp timing (no interrupts)" `Quick test_mp_timing;
    Alcotest.test_case "hpf shift exchange" `Quick test_hpf_shift;
    Alcotest.test_case "hpf packing overhead" `Quick test_hpf_costs_more;
    Alcotest.test_case "collectives under faults" `Quick
      test_collectives_under_faults;
  ]
  @ [ QCheck_alcotest.to_alcotest qcheck_collectives ]
