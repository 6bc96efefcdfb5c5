(** Dense reference implementation of {!Lepts_core.Solver}.

    The same algorithm as the production solve path — scaled
    coordinates, the slack parametrisation, the augmented-Lagrangian
    outer loop over {!Lepts_optim.Projected_gradient.minimize_ws}, the
    adaptive inner budget and the final repair — written the plain
    way: a nested per-instance {!Lepts_optim.Projection.simplex_ip}
    projection, a full forward sweep and a full adjoint sweep on every
    evaluation, dense penalty, gradient and multiplier loops, and the
    allocating objective below ({!eval} / {!eval_with_gradient}).
    Sequential, with no telemetry, spans, metrics, pool or wall
    budget.

    Production replaces each of these kernels with a
    structure-exploiting one (flat block projection, incremental
    dirty-prefix sweeps, cached penalty prefix sums, active-set
    pruning) that must return the same bits; the property tests and
    the bench's huge-solve gate compare the two in [Int64] bits. *)

(** {1 Allocating objective}

    The reference for {!Lepts_core.Objective.eval_ws} and
    {!Lepts_core.Objective.eval_with_gradient_ws}: the same recurrence
    and adjoint over freshly allocated intermediates, which the
    workspace kernels must reproduce bit for bit. *)

val eval :
  plan:Lepts_preempt.Plan.t ->
  power:Lepts_power.Model.t ->
  totals:float array array ->
  e:float array ->
  w_hat:float array ->
  float
(** Runtime energy under greedy reclamation: the energy of
    {!Lepts_core.Objective.trace}. *)

val eval_with_gradient :
  plan:Lepts_preempt.Plan.t ->
  power:Lepts_power.Model.t ->
  totals:float array array ->
  e:float array ->
  w_hat:float array ->
  float * float array * float array
(** [(energy, de, dw_hat)]. Requires the ideal delay model; raises
    [Invalid_argument] for the alpha model. *)

(** {1 Solver} *)

val solve :
  ?max_outer:int ->
  ?max_inner:int ->
  mode:Lepts_core.Objective.mode ->
  plan:Lepts_preempt.Plan.t ->
  power:Lepts_power.Model.t ->
  unit ->
  (Lepts_core.Static_schedule.t * Lepts_core.Solver.stats,
   Lepts_core.Solver.error)
  result
(** Reference for {!Lepts_core.Solver.solve} without warm starts: the
    greedy and ALAP starts, best objective kept in start order.
    Defaults as in production ([max_outer = 30], [max_inner = 2000]). *)

val solve_warm :
  ?max_outer:int ->
  ?max_inner:int ->
  mode:Lepts_core.Objective.mode ->
  prev:Lepts_core.Static_schedule.t ->
  plan:Lepts_preempt.Plan.t ->
  power:Lepts_power.Model.t ->
  unit ->
  (Lepts_core.Static_schedule.t * Lepts_core.Solver.stats,
   Lepts_core.Solver.error)
  result
(** Reference for the continuation branch of
    {!Lepts_core.Solver.resolve_incremental}. [plan] must be structurally
    identical to [prev]'s plan (same sub-instance at every order
    position, same windows), the only case in which production
    continues instead of solving cold. The seed's quotas are
    re-projected in quota units with the nested projection. *)
