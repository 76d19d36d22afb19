(* Quickstart: a shared counter-grid on the software DSM in ~40 lines.

   Eight simulated processors each fill a block of a shared vector, a
   barrier makes everything consistent, and everyone reads a neighbour's
   block. The run prints the virtual parallel time (modeled after an 8-node
   IBM SP/2) and the protocol statistics: messages, page faults, twins,
   diffs.

     dune exec examples/quickstart.exe *)

module Tmk = Dsm_tmk.Tmk
module Shm = Dsm_tmk.Shm
module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats

let () =
  let cfg = Config.default in
  let sys = Tmk.make cfg in
  let n = 1024 in
  let v = Tmk.Alloc.array sys "v" ~dims:[ n ] in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t
      and np = Tmk.nprocs t in
      let chunk = n / np in
      (* write my block *)
      for i = p * chunk to ((p + 1) * chunk) - 1 do
        Shm.F64_1.set t v i (float_of_int (i * i))
      done;
      Tmk.charge t (0.1 *. float_of_int chunk);
      (* lazy release consistency: the barrier exchanges write notices *)
      Tmk.barrier t;
      (* read the next processor's block: page faults fetch the diffs *)
      let q = (p + 1) mod np in
      let sum = ref 0.0 in
      for i = q * chunk to ((q + 1) * chunk) - 1 do
        sum := !sum +. Shm.F64_1.get t v i
      done;
      Tmk.charge t (0.1 *. float_of_int chunk);
      Format.printf "processor %d read neighbour sum %.0f@." p !sum);
  Format.printf "@.parallel time: %.0f us (virtual, SP/2 model)@."
    (Tmk.elapsed sys);
  Format.printf "%a@." Stats.pp (Tmk.total_stats sys);

  (* The same program, letting the compiler-style Validate aggregate the
     reads into one request per writer instead of a fault per page: *)
  let sys2 = Tmk.make cfg in
  let v2 = Tmk.Alloc.array sys2 "v" ~dims:[ n ] in
  Tmk.run sys2 (fun t ->
      let p = Tmk.pid t
      and np = Tmk.nprocs t in
      let chunk = n / np in
      Tmk.validate t
        [ Shm.F64_1.section v2 (p * chunk, ((p + 1) * chunk) - 1, 1) ]
        Tmk.Write_all;
      for i = p * chunk to ((p + 1) * chunk) - 1 do
        Shm.F64_1.set t v2 i (float_of_int (i * i))
      done;
      Tmk.charge t (0.1 *. float_of_int chunk);
      Tmk.barrier t;
      let q = (p + 1) mod np in
      Tmk.validate t
        [ Shm.F64_1.section v2 (q * chunk, ((q + 1) * chunk) - 1, 1) ]
        Tmk.Read;
      let sum = ref 0.0 in
      for i = q * chunk to ((q + 1) * chunk) - 1 do
        sum := !sum +. Shm.F64_1.get t v2 i
      done;
      Tmk.charge t (0.1 *. float_of_int chunk);
      ignore !sum);
  Format.printf "@.with Validate (aggregated, no twins/diffs):@.";
  Format.printf "parallel time: %.0f us@." (Tmk.elapsed sys2);
  Format.printf "%a@." Stats.pp (Tmk.total_stats sys2)
