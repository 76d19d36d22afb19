(* Sharded key-value/session cache on the DSM: the transaction-style
   workload the paper's scientific kernels do not cover. A shared store
   of [keys] packed fixed-size objects (a version counter and a derived
   payload word each) is partitioned into [nprocs * shards_per_proc]
   lock-protected shards; every simulated client session performs one
   operation — a lookup or an update of a single object — under its
   shard's lock, against a Zipfian-skewed key popularity.

   Sessions arrive open-loop on the virtual clock: processor [p]'s k-th
   session arrives at [k * arrival_us] regardless of how fast earlier
   ones completed, so per-operation latency includes queueing delay when
   the DSM cannot keep up — the quantity the p50/p95/p99 percentiles in
   {!App_common.result.latencies_us} measure (the kernels' speedup
   metric is meaningless here; there is no fixed parallel work to
   divide).

   The store is allocated with {!Dsm_tmk.Tmk.Alloc.objs}: many 64-byte
   objects per 4KB page, written by whichever processor's shard lock
   covers them — textbook false sharing. Under [~granularity:Object]
   (the default, knob [--granularity]) the run-time tracks staleness per
   object slot and a validate of objects disjoint from every stale slot
   skips the page fetch; [--granularity page] is the experiment control
   at classic page granularity.

   Updates only bump a per-object version counter and rewrite the
   payload as a function of (key, version), so the final shared state
   depends on the per-key operation counts alone, not on the
   interleaving: digests are identical across backends, processor
   schedules and granularities, and verification compares versions
   against a sequentially computed count. *)

module Tmk = Dsm_tmk.Tmk
module Shm = Dsm_tmk.Shm
module Mp = Dsm_mp.Mp
open App_common

let name = "KV"

(* {1 Problem sizes} *)

type size = {
  keys : int;  (** key-space size; a power of two *)
  obj_bytes : int;  (** per-object footprint, multiple of 8, <= page *)
  shards_per_proc : int;  (** lock-protected shards per processor *)
  sessions : int;  (** total operations across all processors *)
  op_cost : float;  (** us of local compute per operation *)
  arrival_us : float;  (** open-loop inter-arrival per processor, us *)
}

let large =
  {
    keys = 16384;
    obj_bytes = 64;
    shards_per_proc = 4;
    sessions = 32768;
    op_cost = 8.0;
    arrival_us = 2000.0;
  }

let small = { large with keys = 2048; sessions = 8192 }

(* test-suite size: one object page per two processors at 8 procs *)
let tiny = { large with keys = 512; shards_per_proc = 2; sessions = 1024 }

let sizes = [ ("large", large); ("small", small); ("tiny", tiny) ]

let size_name s = Printf.sprintf "%d-keys/%d-ops" s.keys s.sessions

(* The uniprocessor baseline is pure service time: every session's
   compute, no consistency or lock traffic and no idle arrival gaps. *)
let seq_time_us s = float_of_int s.sessions *. s.op_cost

let levels = [ Base ]

(* {1 Behavior knobs} *)

let mixes = [ ("read90", 0.90); ("read50", 0.50); ("write90", 0.10) ]

type behavior = {
  mix : string;  (** name in {!mixes}; fixes the lookup fraction *)
  theta : float;  (** Zipfian skew exponent; 0 = uniform *)
  sessions : int option;  (** override of [size.sessions] *)
  granularity : Tmk.Alloc.granularity;
  keys : int option;  (** override of [size.keys] *)
  shards : int option;  (** override of [size.shards_per_proc] *)
}

let default_behavior =
  {
    mix = "read90";
    theta = 0.99;
    sessions = None;
    granularity = Tmk.Alloc.Object;
    keys = None;
    shards = None;
  }

let knob_doc =
  [
    ("mix", "operation mix: read90, read50 or write90");
    ("skew", "Zipfian hot-key exponent in [0, 2] (0 = uniform)");
    ("sessions", "total simulated client sessions (operations)");
    ("granularity", "store allocation granularity: page or object");
    ("keys", "key-space size (a power of two in [64, 1048576])");
    ("shards", "lock-protected shards per processor, in [1, 64]");
  ]

let is_pow2 n = n > 0 && n land (n - 1) = 0

let err ~field ~value ~range =
  Error (Dsm_net.Plan.field_error ~field ~value ~range)

let with_knob b ~key ~value =
  match key with
  | "mix" ->
      if List.mem_assoc value mixes then Ok { b with mix = value }
      else err ~field:"mix" ~value ~range:"read90, read50, write90"
  | "skew" -> (
      match float_of_string_opt value with
      | Some t when t >= 0.0 && t <= 2.0 -> Ok { b with theta = t }
      | _ -> err ~field:"skew" ~value ~range:"[0, 2]")
  | "sessions" -> (
      match int_of_string_opt value with
      | Some n when n >= 1 && n <= 100_000_000 ->
          Ok { b with sessions = Some n }
      | _ -> err ~field:"sessions" ~value ~range:"[1, 100000000]")
  | "granularity" -> (
      match value with
      | "page" -> Ok { b with granularity = Tmk.Alloc.Page }
      | "object" -> Ok { b with granularity = Tmk.Alloc.Object }
      | _ -> err ~field:"granularity" ~value ~range:"page, object")
  | "keys" -> (
      match int_of_string_opt value with
      | Some n when is_pow2 n && n >= 64 && n <= 1_048_576 ->
          Ok { b with keys = Some n }
      | _ -> err ~field:"keys" ~value ~range:"powers of two in [64, 1048576]")
  | "shards" -> (
      match int_of_string_opt value with
      | Some n when n >= 1 && n <= 64 -> Ok { b with shards = Some n }
      | _ -> err ~field:"shards" ~value ~range:"[1, 64]")
  | _ ->
      Error
        (Printf.sprintf "unknown knob for %s: %s (available: %s)" name key
           (String.concat ", " (List.map fst knob_doc)))

(* {1 Effective run parameters (size refined by behavior)} *)

type eff = {
  e_keys : int;
  e_nshards : int;
  e_per_proc : int;  (** sessions per processor *)
  e_read_frac : float;
  e_theta : float;
}

let effective (size : size) (b : behavior) ~nprocs =
  let keys = Option.value ~default:size.keys b.keys in
  let spp = Option.value ~default:size.shards_per_proc b.shards in
  let sessions = Option.value ~default:size.sessions b.sessions in
  {
    e_keys = keys;
    e_nshards = nprocs * spp;
    e_per_proc = max 1 (sessions / nprocs);
    e_read_frac = List.assoc b.mix mixes;
    e_theta = b.theta;
  }

(* {1 Deterministic operation streams}

   Each processor draws its sessions from a private 63-bit LCG, so the
   stream depends only on (pid, session index) — never on protocol
   timing — and the sequential reference can replay it exactly. *)

let lcg s = (s * 2862933555777941757) + 3037000493
let unit_float s = float_of_int ((s lsr 11) land 0xFFFFFFFF) /. 4294967296.0
let seed p = lcg (0x9E3779B9 + ((p + 1) * 0x85EBCA6B))

(* Zipf(theta) over ranks 1..keys as a normalized CDF; popularity rank
   [r] is scattered over the key space by an odd multiplier so hot keys
   land in different shards (and pages) rather than clustering at 0. *)
let zipf_memo : (int * int64, float array) Hashtbl.t = Hashtbl.create 8

let zipf_cdf ~keys ~theta =
  memo zipf_memo
    (keys, Int64.bits_of_float theta)
    (fun () ->
      let cdf = Array.make keys 0.0 in
      let acc = ref 0.0 in
      for r = 0 to keys - 1 do
        acc := !acc +. (1.0 /. (float_of_int (r + 1) ** theta));
        cdf.(r) <- !acc
      done;
      let total = !acc in
      Array.map (fun w -> w /. total) cdf)

let rank_of_u cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let scatter ~keys rank = (rank * 0x61C88647) land (keys - 1)

(* One session: [(is_lookup, key)]; advances the caller's LCG state. *)
let next_op st cdf ~keys ~read_frac =
  let s1 = lcg !st in
  let s2 = lcg s1 in
  st := s2;
  let is_lookup = unit_float s1 < read_frac in
  let key = scatter ~keys (rank_of_u cdf (unit_float s2)) in
  (is_lookup, key)

(* The payload word is a pure function of (key, version): an updater
   writes both words under the shard lock, so a lookup that observes
   [payload <> payload_of key version] caught a torn or stale object. *)
let payload_of key version =
  if version = 0 then 0
  else ((key * 1000003) + (version * 65599)) land 0x3FFFFFFF

(* {1 Sequential reference: per-key update counts}

   The store's final state is (count, payload_of key count) per key —
   update order is irrelevant — so the reference is just a replay of
   every processor's op stream counting updates. *)

let counts_memo : (int * int * int * int64 * int64, int array) Hashtbl.t =
  Hashtbl.create 8

let reference e ~nprocs =
  let cdf = zipf_cdf ~keys:e.e_keys ~theta:e.e_theta in
  memo counts_memo
    ( e.e_keys,
      e.e_per_proc,
      nprocs,
      Int64.bits_of_float e.e_theta,
      Int64.bits_of_float e.e_read_frac )
    (fun () ->
      let counts = Array.make e.e_keys 0 in
      for p = 0 to nprocs - 1 do
        let st = ref (seed p) in
        for _k = 1 to e.e_per_proc do
          let is_lookup, key =
            next_op st cdf ~keys:e.e_keys ~read_frac:e.e_read_frac
          in
          if not is_lookup then counts.(key) <- counts.(key) + 1
        done
      done;
      counts)

(* {1 TreadMarks version} *)

let tmk ?trace ?(digest = false) ?plan ?(inspect = ignore) cfg ~size ~behavior
    ~level:_ ~async =
  let np = cfg.Dsm_sim.Config.nprocs in
  let e = effective size behavior ~nprocs:np in
  let sys = Tmk.make ?plan cfg in
  let store =
    Tmk.Alloc.objs sys ~granularity:behavior.granularity "kv"
      ~obj_size:size.obj_bytes ~count:e.e_keys
  in
  let wpo = size.obj_bytes / 8 in
  let cdf = zipf_cdf ~keys:e.e_keys ~theta:e.e_theta in
  let lat = Array.init np (fun _ -> Array.make e.e_per_proc 0.0) in
  let errs = Array.make np 0.0 in
  Tmk.run ?trace sys (fun t ->
      let p = Tmk.pid t in
      let st = ref (seed p) in
      for k = 0 to e.e_per_proc - 1 do
        let arrival = float_of_int k *. size.arrival_us in
        let now = Tmk.time t in
        if now < arrival then Tmk.charge t (arrival -. now);
        let is_lookup, key =
          next_op st cdf ~keys:e.e_keys ~read_frac:e.e_read_frac
        in
        let shard = key mod e.e_nshards in
        let lo = key * wpo in
        Tmk.lock_acquire t shard;
        Tmk.validate t ~async
          [ Shm.I64_1.section store (lo, lo + wpo - 1, 1) ]
          (if is_lookup then Tmk.Read else Tmk.Read_write);
        if is_lookup then begin
          let v = Shm.I64_1.get t store lo in
          let pl = Shm.I64_1.get t store (lo + 1) in
          if pl <> payload_of key v then
            errs.(p) <- combine_err errs.(p) 1.0
        end
        else begin
          let v = Shm.I64_1.get t store lo + 1 in
          Shm.I64_1.set t store lo v;
          Shm.I64_1.set t store (lo + 1) (payload_of key v)
        end;
        Tmk.charge t size.op_cost;
        Tmk.lock_release t shard;
        lat.(p).(k) <- Tmk.time t -. arrival
      done);
  let time_us = Tmk.elapsed sys in
  let stats = Tmk.total_stats sys in
  let homes = Tmk.homes sys in
  let classes = Tmk.adapt_classes sys in
  (* Untimed verification pass (a second run, like the digest pass:
     time/stats above are already captured): processor 0 validates and
     reads the whole store through the protocol and compares every
     version against the sequential reference counts. The whole-store
     validate never object-skips — its slot set meets every stale
     slot — so the read observes all updates. *)
  let counts = reference e ~nprocs:np in
  Tmk.run sys (fun t ->
      if Tmk.pid t = 0 then begin
        Tmk.validate t
          [ Shm.I64_1.section store (0, (e.e_keys * wpo) - 1, 1) ]
          Tmk.Read;
        for key = 0 to e.e_keys - 1 do
          let lo = key * wpo in
          let v = Shm.I64_1.get t store lo in
          errs.(0) <- combine_err errs.(0) (float_of_int (v - counts.(key)));
          if Shm.I64_1.get t store (lo + 1) <> payload_of key v then
            errs.(0) <- combine_err errs.(0) 1.0
        done
      end);
  let max_err = Array.fold_left combine_err 0.0 errs in
  let latencies = Array.concat (Array.to_list lat) in
  Array.sort compare latencies;
  let digest = if digest then Tmk.digest sys else "" in
  inspect sys;
  make_result ~time_us ~stats ~max_err ~digest
    ~homes ~classes ~latencies_us:latencies
    ~nops:(e.e_per_proc * np) ()

(* {1 Hand-coded message passing}

   The natural MP design needs no coherence at all: each shard's
   objects live only at the shard's owner, and clients delegate
   operations by RPC. Requests are batched per window of [mp_window]
   sessions (two all-to-all rounds: requests out, per-owner error
   counts back), so an operation's latency is the window's round-trip
   — batching is how a real session cache would amortize the
   per-message cost. *)

let mp_window = 64

let pvm cfg ~size ~behavior =
  let np = cfg.Dsm_sim.Config.nprocs in
  let e = effective size behavior ~nprocs:np in
  let cdf = zipf_cdf ~keys:e.e_keys ~theta:e.e_theta in
  let counts = reference e ~nprocs:np in
  let sys = Mp.make cfg in
  let owner shard = shard mod np in
  let lat = Array.init np (fun _ -> Array.make e.e_per_proc 0.0) in
  let errs = Array.make np 0.0 in
  Mp.run sys (fun t ->
      let p = Mp.pid t in
      (* owner-local half of the store: only the entries of keys whose
         shard this processor owns are ever touched *)
      let vers = Array.make e.e_keys 0 in
      let payl = Array.make e.e_keys 0 in
      let st = ref (seed p) in
      let apply is_lookup key =
        if is_lookup then begin
          if payl.(key) <> payload_of key vers.(key) then
            errs.(p) <- combine_err errs.(p) 1.0
        end
        else begin
          vers.(key) <- vers.(key) + 1;
          payl.(key) <- payload_of key vers.(key)
        end;
        Mp.charge t size.op_cost
      in
      let serve a =
        let n = Array.length a / 2 in
        for i = 0 to n - 1 do
          apply (a.(2 * i) = 0.0) (int_of_float a.((2 * i) + 1))
        done
      in
      let done_ops = ref 0 in
      let window_no = ref 0 in
      while !done_ops < e.e_per_proc do
        let w = min mp_window (e.e_per_proc - !done_ops) in
        let first = !done_ops in
        (* open-loop: the window starts no earlier than its first
           session's arrival *)
        let arrival0 = float_of_int first *. size.arrival_us in
        let now = Mp.time t in
        if now < arrival0 then Mp.charge t (arrival0 -. now);
        (* generate and partition the window's sessions by owner,
           encoded [kind; key] per op (kind 0 = lookup, 1 = update) *)
        let batches = Array.make np [] in
        for _k = 1 to w do
          let is_lookup, key =
            next_op st cdf ~keys:e.e_keys ~read_frac:e.e_read_frac
          in
          let q = owner (key mod e.e_nshards) in
          batches.(q) <-
            float_of_int key :: (if is_lookup then 0.0 else 1.0) :: batches.(q)
        done;
        let tag_req = 2 * !window_no and tag_rep = (2 * !window_no) + 1 in
        for q = 0 to np - 1 do
          if q <> p then
            Mp.send_floats t ~dst:q ~tag:tag_req
              (Array.of_list (List.rev batches.(q)))
        done;
        (* serve own sessions, then every peer's delegated batch *)
        serve (Array.of_list (List.rev batches.(p)));
        for q = 0 to np - 1 do
          if q <> p then serve (Mp.recv_floats t ~src:q ~tag:tag_req)
        done;
        (* completion acknowledgements back to the clients; a window's
           sessions complete when every owner has acknowledged *)
        for q = 0 to np - 1 do
          if q <> p then Mp.send_floats t ~dst:q ~tag:tag_rep [| 1.0 |]
        done;
        for q = 0 to np - 1 do
          if q <> p then ignore (Mp.recv_floats t ~src:q ~tag:tag_rep)
        done;
        let fin = Mp.time t in
        for k = first to first + w - 1 do
          (* the batch usually drains before the window's later sessions
             even arrive; a session still cannot complete earlier than
             its own arrival plus service *)
          lat.(p).(k) <-
            Float.max size.op_cost
              (fin -. (float_of_int k *. size.arrival_us))
        done;
        incr window_no;
        done_ops := !done_ops + w
      done;
      (* final check of the owned keys against the reference counts *)
      for key = 0 to e.e_keys - 1 do
        if owner (key mod e.e_nshards) = p then begin
          errs.(p) <-
            combine_err errs.(p) (float_of_int (vers.(key) - counts.(key)));
          if payl.(key) <> payload_of key vers.(key) then
            errs.(p) <- combine_err errs.(p) 1.0
        end
      done);
  let latencies = Array.concat (Array.to_list lat) in
  Array.sort compare latencies;
  make_result ~time_us:(Mp.elapsed sys) ~stats:(Mp.total_stats sys)
    ~max_err:(Array.fold_left combine_err 0.0 errs)
    ~latencies_us:latencies
    ~nops:(e.e_per_proc * np) ()

(* XHPF cannot parallelize the cache: which object an operation touches
   is data-dependent (drawn from the Zipfian stream), outside its
   regular-section analysis. *)
let xhpf :
    (Dsm_sim.Config.t -> size:size -> behavior:behavior -> App_common.result)
    option =
  None
