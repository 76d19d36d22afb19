(* Migratory data under locks: the Integer-Sort pattern from Section 6 of
   the paper, reduced to its essence.

   A shared table of accumulators is divided into per-lock sections; the
   processors visit the sections in a staggered order, each adding its
   private contribution. In the base run-time every visit faults and fetches
   one diff per previous writer — the "diff accumulation" pathology. With
   the compiler-produced [Validate_w_sync(..., READ&WRITE_ALL)] the request
   travels with the lock message, no twins or diffs are made, and one full
   copy supersedes the accumulation.

     dune exec examples/migratory_locks.exe *)

module Tmk = Dsm_tmk.Tmk
module Shm = Dsm_tmk.Shm
module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats

let n_slots = 4096 (* 8 pages *)

let run ~optimized =
  let cfg = Config.default in
  let sys = Tmk.make cfg in
  let table = Tmk.Alloc.array sys "table" ~dims:[ n_slots ] in
  let np = cfg.Config.nprocs in
  let sec_len = n_slots / np in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      for step = 0 to np - 1 do
        let s = (p + step) mod np in
        let section =
          [ Shm.I64_1.section table (s * sec_len, ((s + 1) * sec_len) - 1, 1) ]
        in
        if optimized then Tmk.validate_w_sync t section Tmk.Read_write_all;
        Tmk.lock_acquire t s;
        for k = s * sec_len to ((s + 1) * sec_len) - 1 do
          Shm.I64_1.set t table k (Shm.I64_1.get t table k + (p + 1))
        done;
        Tmk.charge t (0.2 *. float_of_int sec_len);
        Tmk.lock_release t s
      done;
      Tmk.barrier t;
      (* check: every slot accumulated 1+2+...+np *)
      if p = 0 then begin
        let expect = np * (np + 1) / 2 in
        for k = 0 to n_slots - 1 do
          assert (Shm.I64_1.get t table k = expect)
        done
      end);
  (Tmk.elapsed sys, Tmk.total_stats sys)

let () =
  let bt, bs = run ~optimized:false in
  let ot, os = run ~optimized:true in
  Format.printf "base TreadMarks:     %8.0f us  %a@." bt Stats.pp bs;
  Format.printf "with Validate_w_sync:%8.0f us  %a@." ot Stats.pp os;
  Format.printf
    "@.data reduced %.0f%%, messages reduced %.0f%%, twins %d -> %d@."
    (100.
    *. float_of_int (bs.Stats.bytes - os.Stats.bytes)
    /. float_of_int bs.Stats.bytes)
    (100.
    *. float_of_int (bs.Stats.messages - os.Stats.messages)
    /. float_of_int bs.Stats.messages)
    bs.Stats.twins os.Stats.twins
