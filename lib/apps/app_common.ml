type opt_level = Base | Comm_aggr | Cons_elim | Sync_merge | Push_opt

let opt_level_name = function
  | Base -> "base"
  | Comm_aggr -> "comm-aggr"
  | Cons_elim -> "cons-elim"
  | Sync_merge -> "sync-merge"
  | Push_opt -> "push"

type result = {
  time_us : float;
  stats : Dsm_sim.Stats.t;
  max_err : float;
  digest : string;
      (* content digest of the final shared state, observed through the
         protocol ({!Dsm_tmk.Tmk.digest}); computed only when [tmk
         ~digest:true] asks for it (an extra read pass), and [""]
         otherwise. A string, never a closure over the system: results
         are memoized across the whole benchmark suite, and anything
         that kept the run-time state reachable would pin every page,
         twin and diff store of every completed run in the heap. *)
  latencies_us : float array option;
      (* per-operation latencies of a transaction-style workload (KV),
         sorted ascending; [None] for the kernels, whose unit of work is
         the whole run. Plain data, like [digest]: memoized results must
         never pin run-time state. *)
  nops : int;
      (* operations completed by a transaction-style workload, the
         denominator of msgs/op and bytes/op; [0] for the kernels. *)
}

(* The one end of every DSM run. Time and stats are read first, so the
   passes after them (verification, digest) perturb neither; [inspect]
   sees the state the verification pass left, before the digest pass's
   reads can assign first-touch homes or move the adaptive backend's
   sharing observations. *)
let finish_tmk ?latencies_us ?(nops = 0) sys ~digest ~inspect verify =
  let time_us = Dsm_tmk.Tmk.elapsed sys in
  let stats = Dsm_tmk.Tmk.total_stats sys in
  let max_err = verify () in
  inspect sys;
  let digest = if digest then Dsm_tmk.Tmk.digest sys else "" in
  { time_us; stats; max_err; digest; latencies_us; nops }

let finish_mp ?latencies_us ?(nops = 0) sys ~max_err =
  {
    time_us = Dsm_mp.Mp.elapsed sys;
    stats = Dsm_mp.Mp.total_stats sys;
    max_err;
    digest = "";
    latencies_us;
    nops;
  }

let combine_err a b = Float.max a (abs_float b)

(* Memoization of each app's sequential reference solution: the tables
   are tiny (a handful of problem sizes) and the compute is
   deterministic. *)
let memo tbl key compute =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = compute () in
      Hashtbl.replace tbl key v;
      v

(* Memoized references live as long as the process and are only read,
   so they are kept outside the OCaml heap (see the interface). *)
type floats =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let floats_of_array a =
  Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout a

let floats_of_columns cols = floats_of_array (Array.concat (Array.to_list cols))
let ints_of_array a = Bigarray.Array1.of_array Bigarray.int Bigarray.c_layout a

