type t = {
  cfg : Config.t;
  clocks : float array;
  stats : Stats.t array;
  busy_start : float array;
  busy_until : float array;
      (* per-processor interrupt-handler occupancy interval: requests that
         arrive inside it serialize behind it (the hot-spot effect that
         barrier-time broadcast avoids); requests arriving before it (a
         processor whose virtual time lags the simulation order) are served
         at their own arrival time *)
  mutable pages_in_use : int;
}

let create cfg =
  {
    cfg;
    clocks = Array.make cfg.Config.nprocs 0.0;
    stats = Array.init cfg.Config.nprocs (fun _ -> Stats.create ());
    busy_start = Array.make cfg.Config.nprocs 0.0;
    busy_until = Array.make cfg.Config.nprocs 0.0;
    pages_in_use = 0;
  }

let nprocs t = t.cfg.Config.nprocs
let time t p = t.clocks.(p)

let elapsed t = Array.fold_left max 0.0 t.clocks

let charge t p dt = t.clocks.(p) <- t.clocks.(p) +. dt

let sync_clock t p at = if at > t.clocks.(p) then t.clocks.(p) <- at

let send t ~src ~dst:_ ~bytes =
  let c = t.cfg in
  let st = t.stats.(src) in
  st.Stats.messages <- st.Stats.messages + 1;
  st.Stats.bytes <- st.Stats.bytes + bytes;
  charge t src (c.Config.msg_overhead_us +. (c.Config.per_byte_us *. float_of_int bytes));
  t.clocks.(src) +. c.Config.wire_latency_us

let recv_charge t ~dst ~arrival ~interrupt =
  let c = t.cfg in
  sync_clock t dst arrival;
  charge t dst
    (c.Config.msg_overhead_us
    +. if interrupt then c.Config.interrupt_us else 0.0)

(* Claim the target's handler: serialize behind an overlapping busy period,
   start a new one otherwise. *)
let occupy t dst ~arrival ~handler_time =
  if not t.cfg.Config.enable_hotspot_queueing then arrival
  else if arrival >= t.busy_until.(dst) then begin
    t.busy_start.(dst) <- arrival;
    t.busy_until.(dst) <- arrival +. handler_time;
    arrival
  end
  else if arrival >= t.busy_start.(dst) then begin
    let start = t.busy_until.(dst) in
    t.busy_until.(dst) <- start +. handler_time;
    start
  end
  else arrival (* served in the past; occupancy unknown, assume free *)

let rpc t ~src ~dst ~req_bytes ~resp_bytes ~service =
  let c = t.cfg in
  let st_src = t.stats.(src)
  and st_dst = t.stats.(dst) in
  st_src.Stats.messages <- st_src.Stats.messages + 1;
  st_src.Stats.bytes <- st_src.Stats.bytes + req_bytes;
  st_dst.Stats.messages <- st_dst.Stats.messages + 1;
  st_dst.Stats.bytes <- st_dst.Stats.bytes + resp_bytes;
  let handler_time =
    c.Config.interrupt_us +. c.Config.msg_overhead_us +. service
    +. c.Config.msg_overhead_us
    +. (c.Config.per_byte_us *. float_of_int resp_bytes)
  in
  (* Interrupt handling steals cycles from the target processor; back-to-back
     requests to the same target serialize behind its handler occupancy. *)
  charge t dst handler_time;
  let send_done =
    t.clocks.(src)
    +. c.Config.msg_overhead_us
    +. (c.Config.per_byte_us *. float_of_int req_bytes)
  in
  let arrival = send_done +. c.Config.wire_latency_us in
  let start = occupy t dst ~arrival ~handler_time in
  t.clocks.(src) <-
    start +. handler_time +. c.Config.wire_latency_us
    +. c.Config.msg_overhead_us

let mm_op t p ~npages =
  let c = t.cfg in
  charge t p
    (c.Config.mm_base_us
    +. (c.Config.mm_per_inuse_page_us *. float_of_int t.pages_in_use)
    +. (c.Config.mm_per_op_page_us *. float_of_int npages))
