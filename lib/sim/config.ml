type backend_kind = Lrc | Hlrc | Inval | Adaptive
type home_policy = Home_block | Home_cyclic | Home_first_touch

(* One normalization for every enum-valued flag: trim surrounding
   whitespace, lower-case, and treat '_' and '-' as the same separator, so
   "first-touch", "first_touch" and "First-Touch" all name one policy. *)
let normalize_enum s =
  String.trim s |> String.lowercase_ascii
  |> String.map (function '_' -> '-' | c -> c)

let backend_name = function
  | Lrc -> "lrc"
  | Hlrc -> "hlrc"
  | Inval -> "inval"
  | Adaptive -> "adaptive"

let backend_choices = [ "lrc"; "hlrc"; "inval"; "adaptive" ]

let backend_of_string s =
  match normalize_enum s with
  | "lrc" -> Some Lrc
  | "hlrc" -> Some Hlrc
  | "inval" | "invalidate" -> Some Inval
  | "adaptive" -> Some Adaptive
  | _ -> None

let home_policy_name = function
  | Home_block -> "block"
  | Home_cyclic -> "cyclic"
  | Home_first_touch -> "first-touch"

let home_policy_choices = [ "block"; "cyclic"; "first-touch" ]

let home_policy_of_string s =
  match normalize_enum s with
  | "block" -> Some Home_block
  | "cyclic" -> Some Home_cyclic
  | "first-touch" -> Some Home_first_touch
  | _ -> None

type t = {
  nprocs : int;
  page_size : int;
  wire_latency_us : float;
  per_byte_us : float;
  msg_overhead_us : float;
  interrupt_us : float;
  lock_service_us : float;
  mm_base_us : float;
  mm_per_inuse_page_us : float;
  mm_per_op_page_us : float;
  twin_per_byte_us : float;
  diff_create_per_byte_us : float;
  diff_apply_per_byte_us : float;
  wsync_scan_per_page_us : float;
  diff_service_us : float;
  notice_bytes : int;
  enable_bcast : bool;
  enable_supersede : bool;
  enable_hotspot_queueing : bool;
  net_drop : float;
  net_dup : float;
  net_jitter_us : float;
  net_seed : int;
  backend : backend_kind;
  home_policy : home_policy;
  replicas : int;
      (* fault tolerance: size k of each page's home replica group (hlrc
         only); 1 = the plain single-home protocol, bit-identical to the
         pre-replication runtime *)
  ckpt_every : int;
      (* fault tolerance: barrier epochs between checkpoints of the vector
         clocks and per-page watermarks; 0 = only the implicit initial
         checkpoint *)
  crash : (int * float * float) list;
      (* fault tolerance: deterministic crash schedule [(proc, at_us,
         down_us)]; the processor fail-stops at its first release point at
         or after [at_us] and rejoins after [down_us] of virtual downtime *)
}

(* Calibration (see config.mli): solving the roundtrip, lock and barrier
   equations from Section 5 of the paper gives alpha = 118.5, o = 20,
   i = 48, lock service = 62. *)
let default =
  {
    nprocs = 8;
    page_size = 4096;
    wire_latency_us = 118.5;
    per_byte_us = 0.03;
    msg_overhead_us = 20.0;
    interrupt_us = 48.0;
    lock_service_us = 81.0;
    mm_base_us = 18.0;
    mm_per_inuse_page_us = 0.12;
    mm_per_op_page_us = 2.0;
    twin_per_byte_us = 0.005;
    diff_create_per_byte_us = 0.01;
    diff_apply_per_byte_us = 0.006;
    wsync_scan_per_page_us = 2.5;
    diff_service_us = 25.0;
    notice_bytes = 12;
    enable_bcast = true;
    enable_supersede = true;
    enable_hotspot_queueing = true;
    net_drop = 0.0;
    net_dup = 0.0;
    net_jitter_us = 0.0;
    net_seed = 0;
    backend = Lrc;
    home_policy = Home_block;
    replicas = 1;
    ckpt_every = 0;
    crash = [];
  }

let with_procs cfg n = { cfg with nprocs = n }

let pp ppf c =
  Format.fprintf ppf
    "@[<v>nprocs=%d page=%dB alpha=%.1fus beta=%.4fus/B o=%.1fus i=%.1fus@]"
    c.nprocs c.page_size c.wire_latency_us c.per_byte_us c.msg_overhead_us
    c.interrupt_us
