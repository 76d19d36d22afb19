(* Per-run fault plan of the modeled unreliable transport.

   The plan is carried by {!Dsm_sim.Config} (so it reaches every subsystem
   that builds a cluster without threading new parameters through the
   application interfaces) and interpreted here. All fault decisions are
   drawn from a counter-based splitmix64 stream seeded with [seed]: the
   simulator's scheduler is deterministic, so a faulty run is exactly
   reproducible from [(config, seed)]. *)

module Config = Dsm_sim.Config

type t = {
  drop : float;  (* per-attempt loss probability *)
  dup : float;  (* per-delivery duplication probability *)
  jitter_us : float;  (* max uniform extra delivery delay *)
  seed : int;
  rto_us : float;  (* base retransmission timeout *)
  max_attempts : int;  (* the last attempt is forced through, so even a
                          drop rate of 1.0 terminates *)
}

let default_max_attempts = 16

let default =
  {
    drop = 0.0;
    dup = 0.0;
    jitter_us = 0.0;
    seed = 0;
    rto_us = 1000.0;
    max_attempts = default_max_attempts;
  }

let of_config (c : Config.t) =
  {
    drop = c.Config.net_drop;
    dup = c.Config.net_dup;
    jitter_us = c.Config.net_jitter_us;
    seed = c.Config.net_seed;
    rto_us = default.rto_us;
    max_attempts = default_max_attempts;
  }

let is_passthrough t = t.drop = 0.0 && t.dup = 0.0 && t.jitter_us = 0.0

(* One format for every out-of-range configuration value, shared with the
   crash-schedule validation in [Dsm_ft.Schedule]: name the field, show the
   offending value and state the accepted range, so a CLI error pinpoints
   which flag to fix. *)
let field_error ~field ~value ~range =
  Printf.sprintf "%s: %s outside accepted range %s" field value range

(* The [not (x >= lo && x <= hi)] form also rejects NaN. *)
let validate t =
  if not (t.drop >= 0.0 && t.drop <= 1.0) then
    Error
      (field_error ~field:"drop" ~value:(Printf.sprintf "%g" t.drop)
         ~range:"[0, 1]")
  else if not (t.dup >= 0.0 && t.dup <= 1.0) then
    Error
      (field_error ~field:"dup" ~value:(Printf.sprintf "%g" t.dup)
         ~range:"[0, 1]")
  else if not (t.jitter_us >= 0.0) then
    Error
      (field_error ~field:"jitter_us"
         ~value:(Printf.sprintf "%g" t.jitter_us)
         ~range:"[0, inf)")
  else if t.seed < 0 then
    Error
      (field_error ~field:"net_seed" ~value:(string_of_int t.seed)
         ~range:"[0, max_int]")
  else if not (t.rto_us > 0.0) then
    Error
      (field_error ~field:"rto_us" ~value:(Printf.sprintf "%g" t.rto_us)
         ~range:"(0, inf)")
  else if t.max_attempts < 1 then
    Error
      (field_error ~field:"max_attempts" ~value:(string_of_int t.max_attempts)
         ~range:"[1, max_int]")
  else Ok t

let pp ppf t =
  Format.fprintf ppf "drop=%g dup=%g jitter=%gus seed=%d rto=%gus" t.drop
    t.dup t.jitter_us t.seed t.rto_us
