(** Small statistics helpers for the benchmark harness: percentiles,
    CDF tables, and fixed-width row printing in the shape of the paper's
    figures. *)

(** [percentile xs p] is the [p]-th percentile (0–100) by linear
    interpolation. @raise Invalid_argument on an empty list or p outside
    [0, 100]. *)
val percentile : float list -> float -> float

val mean : float list -> float
val minimum : float list -> float
val maximum : float list -> float

(** [five_number xs] is (p1, p25, p50, p75, p99) — the whisker/box set the
    paper's box plots report (Fig. 3, Fig. 18). *)
val five_number : float list -> float * float * float * float * float

(** [cdf ?points xs] is an evenly-spaced (value, cumulative fraction)
    table, suitable for printing a CDF series (Fig. 13/14/15/19). *)
val cdf : ?points:int -> float list -> (float * float) list

(** [pp_duration ppf s] prints seconds with an adaptive unit (µs/ms/s). *)
val pp_duration : Format.formatter -> float -> unit

(** [row cells] prints table cells left-aligned in 22-character columns;
    a longer cell is followed by one space. *)
val row : string list -> unit

(** [header title] prints an underlined section title (one per table or
    figure in the harness output). *)
val header : string -> unit
