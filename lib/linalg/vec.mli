(** Dense float vectors.

    Thin wrappers over [float array] used by the optimizer. Operations
    ending in [_into] write into a caller-given vector. Dimension mismatches raise [Invalid_argument]. *)

type t = float array

val zeros : int -> t
val copy : t -> t
val dim : t -> int

val axpy_into : float -> t -> t -> into:t -> unit
(** [axpy_into a x y ~into] writes [a*x + y] into [into] without
    allocating. [into] may alias [x] or [y]. *)

val sub_into : t -> t -> into:t -> unit
(** [sub_into a b ~into] writes [a - b] into [into] without
    allocating. [into] may alias [a] or [b]. *)

val dot : t -> t -> float
val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float
