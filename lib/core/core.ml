(* Public facade of the integrated compile-time/run-time software DSM
   system: one module path for the whole library.

   - {!Tmk}: the TreadMarks-style LRC run-time with the augmented interface
     (Validate, Validate_w_sync, Push)
   - {!Compiler}: the Parascope-style analysis and the Section 4.2
     source-to-source transformation over the explicitly-parallel loop IR
   - {!Sim}, {!Mem}, {!Rsd}: the simulated cluster, paged memory and
     regular-section substrates
   - {!Mp}, {!Hpf}: the message-passing baselines' substrates
   - {!Apps}, {!Harness}: the six benchmark applications and the
     table/figure regeneration harness *)

module Config = Dsm_sim.Config
module Cluster = Dsm_sim.Cluster
module Engine = Dsm_sim.Engine
module Stats = Dsm_sim.Stats
module Net = Dsm_net.Net
module Net_plan = Dsm_net.Plan
module Range = Dsm_rsd.Range
module Rsd = Dsm_rsd.Rsd
module Section = Dsm_rsd.Section
module Diff = Dsm_mem.Diff
module Addr_space = Dsm_mem.Addr_space
module Page_table = Dsm_mem.Page_table
module Tmk = Dsm_tmk.Tmk
module Proto_plan = Dsm_tmk.Proto_plan
module Shm = Dsm_tmk.Shm
module Vc = Dsm_tmk.Vc
module Prof = Dsm_prof.Prof
module Sampler = Dsm_prof.Sampler

module Trace = struct
  module Event = Dsm_trace.Event
  module Sink = Dsm_trace.Sink
  module Check = Dsm_trace.Check
  module Replay = Dsm_trace.Replay
end

module Lint = struct
  module Diag = Dsm_lint.Diag
  module Race = Dsm_lint.Race
  module Verify = Dsm_lint.Verify
  module Differential = Dsm_lint.Differential
  module Classify = Dsm_lint.Classify
  module App_models = Dsm_lint.App_models
end
module Mp = Dsm_mp.Mp
module Hpf = Dsm_hpf.Hpf

module Ft = struct
  module Schedule = Dsm_ft.Schedule
  module State = Dsm_ft.Ft
end

module Compiler = struct
  module Lin = Dsm_compiler.Lin
  module Sym_rsd = Dsm_compiler.Sym_rsd
  module Ir = Dsm_compiler.Ir
  module Access = Dsm_compiler.Access
  module Transform = Dsm_compiler.Transform
  module Interp = Dsm_compiler.Interp
  module Pretty = Dsm_compiler.Pretty
  module Programs = Dsm_compiler.Programs
end

module Apps = struct
  module Common = Dsm_apps.App_common
  module Workload = Dsm_apps.Workload
  module Registry = Dsm_apps.Registry
  module Jacobi = Dsm_apps.Jacobi
  module Fft3d = Dsm_apps.Fft3d
  module Shallow = Dsm_apps.Shallow
  module Is = Dsm_apps.Is
  module Gauss = Dsm_apps.Gauss
  module Mgs = Dsm_apps.Mgs
  module Kv = Dsm_apps.Kv
end

module Harness = struct
  module Grid = Dsm_harness.Grid
  module Experiments = Dsm_harness.Experiments
  module Phases = Dsm_harness.Phases
  module Cli = Dsm_harness.Cli
end
