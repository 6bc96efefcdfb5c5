(** Ablations of the design choices DESIGN.md calls out.

    Each function runs one comparison on a given task set and returns a
    printable table:

    - {!formulations}: the production slack-parametrised NLP vs the
      paper-literal constrained formulation (predicted energy and
      solve time);
    - {!objectives}: ACS (ACEC point) vs the stochastic
      probability-weighted objective vs WCS, judged by simulated mean
      energy;
    - {!quantization}: continuous greedy reclamation vs discrete
      voltage levels of varying granularity;
    - {!structures}: preemptive vs non-preemptive plans on the same
      task set (where the non-preemptive one is schedulable), plus the
      YDS lower bound for context.

    Every comparison accepts [jobs] (default 1): it parallelises the
    solver's multi-start and, where a simulation is involved, the
    simulation rounds — tables are bit-identical for every value.

    Every comparison also accepts [warm_start] (default [false]): each
    ACS-style solve becomes one continuation descent from a fresh WCS
    solution ({!Lepts_core.Solver.resolve_incremental}) instead of the
    cold multi-start — faster, never worse than the WCS seed, but a distinct
    configuration (fewer basins explored), so persisted results must
    key on the flag (the CLI folds [--warm-start] into its checkpoint
    fingerprint). *)

val formulations :
  ?jobs:int ->
  ?warm_start:bool ->
  task_set:Lepts_task.Task_set.t ->
  power:Lepts_power.Model.t ->
  unit ->
  (Lepts_util.Table.t, Lepts_core.Solver.error) result

val objectives :
  ?rounds:int ->
  ?jobs:int ->
  ?warm_start:bool ->
  task_set:Lepts_task.Task_set.t ->
  power:Lepts_power.Model.t ->
  seed:int ->
  unit ->
  (Lepts_util.Table.t, Lepts_core.Solver.error) result
(** [warm_start] here reuses the WCS arm the table already solves as the
    continuation seed, so it costs nothing extra. *)

val quantization :
  ?rounds:int ->
  ?steps:int list ->
  ?jobs:int ->
  ?warm_start:bool ->
  task_set:Lepts_task.Task_set.t ->
  power:Lepts_power.Model.t ->
  seed:int ->
  unit ->
  (Lepts_util.Table.t, Lepts_core.Solver.error) result

val structures :
  ?jobs:int ->
  ?warm_start:bool ->
  task_set:Lepts_task.Task_set.t ->
  power:Lepts_power.Model.t ->
  unit ->
  (Lepts_util.Table.t, Lepts_core.Solver.error) result
