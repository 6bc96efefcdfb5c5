(** Euclidean projections onto the feasible sets used by the scheduler
    NLPs. *)

val simplex : total:float -> Lepts_linalg.Vec.t -> Lepts_linalg.Vec.t
(** Projection onto the scaled simplex [{x : x >= 0, sum x = total}]
    (Held, Wolfe & Crowder; the standard sort-based O(n log n)
    algorithm). Requires [total >= 0.] and a non-empty vector. *)

val simplex_ip : total:float -> scratch:Lepts_linalg.Vec.t -> Lepts_linalg.Vec.t -> unit
(** In-place {!simplex}: projects [x] onto the scaled simplex without
    allocating, using [scratch] (same length as [x]) for the sort.
    Bit-identical to [simplex] — the same descending sort and the same
    threshold arithmetic, just written back into [x]. *)

val simplex_fast_ip :
  total:float -> scratch:Lepts_linalg.Vec.t -> n:int -> Lepts_linalg.Vec.t -> unit
(** [simplex_fast_ip ~total ~scratch ~n x] projects the prefix
    [x.[0, n)] onto the scaled simplex, bit-identical to {!simplex_ip}
    on that prefix. Same threshold-by-descending-sort arithmetic; the
    sort swaps [Float.compare] for raw float comparisons (insertion
    sort for [n <= 32], in-place heapsort above) which preserves the
    descending value sequence for any NaN-free input, and [n = 1]
    short-circuits to the algebraically-unfolded single-element result.
    [x] and [scratch] may be longer than [n]; only the prefix is
    touched. Requires [total >= 0.], [n >= 1], and NaN-free input. *)

val simplex_condat_ip :
  total:float -> scratch:Lepts_linalg.Vec.t -> n:int -> Lepts_linalg.Vec.t -> unit
(** Condat's O(n) exact-threshold simplex projection of the prefix
    [x.[0, n)]. Computes the same mathematical threshold as
    {!simplex_ip} but accumulates it in a different order, so the
    result agrees to rounding (ulps; the property tests pin 1e-12
    relative agreement componentwise) without being bit-identical —
    see DESIGN.md §12 for why the solver keeps the
    sort-based threshold. Requires [total >= 0.], [n >= 1], NaN-free
    input, and [Array.length scratch >= n]. *)
