(** The scheduling policies by the name the command-line tools give them,
    each with its default config — the one table {!Mcmf.Race.modes} is
    for race modes. *)
val all : (string * Policy.factory) list
