module Mp = Dsm_mp.Mp

(* per element on each side of a generic section pack/unpack *)
let pack_us_per_elem = 0.012

(* per-communication distribution bookkeeping *)
let comm_setup_us = 8.0

let charge_pack t n = Mp.charge t (pack_us_per_elem *. float_of_int n)

let shift_exchange t ~tag ~left ~right =
  let p = Mp.pid t
  and n = Mp.nprocs t in
  Mp.charge t comm_setup_us;
  if p > 0 then begin
    charge_pack t (Array.length left);
    Mp.send_floats t ~dst:(p - 1) ~tag left
  end;
  if p < n - 1 then begin
    charge_pack t (Array.length right);
    Mp.send_floats t ~dst:(p + 1) ~tag right
  end;
  let from_left =
    if p > 0 then begin
      let x = Mp.recv_floats t ~src:(p - 1) ~tag in
      charge_pack t (Array.length x);
      Some x
    end
    else None
  in
  let from_right =
    if p < n - 1 then begin
      let x = Mp.recv_floats t ~src:(p + 1) ~tag in
      charge_pack t (Array.length x);
      Some x
    end
    else None
  in
  (from_left, from_right)

let bcast_section t ~root ~tag payload =
  Mp.charge t comm_setup_us;
  if Mp.pid t = root then charge_pack t (Array.length payload);
  let r = Mp.bcast_floats t ~root ~tag payload in
  if Mp.pid t <> root then charge_pack t (Array.length r);
  r
