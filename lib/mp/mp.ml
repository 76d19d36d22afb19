module Cluster = Dsm_sim.Cluster
module Config = Dsm_sim.Config
module Engine = Dsm_sim.Engine
module Net = Dsm_net.Net

type msg = { arrival : float; payload : float array }

type system = {
  cluster : Cluster.t;
  net : Net.t;
      (* reliable transport over the (possibly faulty) modeled network;
         a fault-free plan is a bit-identical pass-through *)
  boxes : (int * int * int, msg Queue.t) Hashtbl.t;  (* (src, dst, tag) *)
  nprocs : int;
}

type t = { sys : system; p : int }

let make cfg =
  let cluster = Cluster.create cfg in
  {
    cluster;
    net = Net.create cluster;
    boxes = Hashtbl.create 256;
    nprocs = cfg.Config.nprocs;
  }

let run sys main = Engine.run ~nprocs:sys.nprocs (fun p -> main { sys; p })

let pid t = t.p
let nprocs t = t.sys.nprocs
let charge t us = Cluster.charge t.sys.cluster t.p us
let time t = Cluster.time t.sys.cluster t.p

let box sys key =
  match Hashtbl.find_opt sys.boxes key with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace sys.boxes key q;
      q

let send_floats t ~dst ~tag payload =
  let bytes = 8 * Array.length payload in
  let arrival = Net.send t.sys.net ~src:t.p ~dst ~bytes in
  let q = box t.sys (t.p, dst, tag) in
  Queue.push { arrival; payload = Array.copy payload } q

let recv_floats t ~src ~tag =
  let q = box t.sys (src, t.p, tag) in
  Engine.block ~until:(fun () -> not (Queue.is_empty q));
  let m = Queue.pop q in
  Cluster.recv_charge t.sys.cluster ~dst:t.p ~arrival:m.arrival ~interrupt:false;
  m.payload

let sendrecv_floats t ~dst ~src ~tag payload =
  send_floats t ~dst ~tag payload;
  recv_floats t ~src ~tag

(* Binomial tree rooted at [root]: in round r, processors with relative rank
   < 2^r forward to rank + 2^r. *)
let bcast_floats t ~root ~tag payload =
  let n = nprocs t in
  let rel = (t.p - root + n) mod n in
  let data = ref (if t.p = root then Array.copy payload else [||]) in
  let round = ref 1 in
  while !round < n do
    if rel >= !round && rel < 2 * !round && rel - !round < n then begin
      let src = (rel - !round + root) mod n in
      data := recv_floats t ~src ~tag
    end
    else if rel < !round && rel + !round < n then begin
      let dst = (rel + !round + root) mod n in
      send_floats t ~dst ~tag !data
    end;
    round := !round * 2
  done;
  !data

let reduce t ~tag ~op payload =
  (* gather to processor 0 up a binomial tree *)
  let n = nprocs t in
  let acc = ref (Array.copy payload) in
  let round = ref 1 in
  while !round < n do
    if t.p mod (2 * !round) = 0 then begin
      if t.p + !round < n then begin
        let other = recv_floats t ~src:(t.p + !round) ~tag in
        acc := Array.map2 op !acc other
      end
    end
    else if t.p mod (2 * !round) = !round then begin
      send_floats t ~dst:(t.p - !round) ~tag !acc;
      round := n (* done participating *)
    end;
    round := !round * 2
  done;
  !acc

let allreduce_sum t ~tag payload =
  let r = reduce t ~tag ~op:( +. ) payload in
  bcast_floats t ~root:0 ~tag:(tag + 1) r

let allreduce_max t ~tag payload =
  let r = reduce t ~tag ~op:Float.max payload in
  bcast_floats t ~root:0 ~tag:(tag + 1) r

let barrier_tag = -1001

let barrier t =
  ignore (allreduce_sum t ~tag:barrier_tag [| 0.0 |])

let elapsed sys = Cluster.elapsed sys.cluster
let stats sys = sys.cluster.Cluster.stats
let total_stats sys = Dsm_sim.Stats.total (stats sys)
