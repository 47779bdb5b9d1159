(** Structured JSON output for experiment results ([nfsbench --json]).

    The document schema, version ["renofs-bench/1"]:

    {v
    { "schema": "renofs-bench/1",
      "scale": "quick" | "full",
      "jobs": <int>,
      "experiments": [
        { "id": "graph1",
          "title": "...",
          "header": ["load(rpc/s)", ...],
          "rows": [
            [ {"type":"float","value":5.0,"unit":"per_s","prec":1},
              {"type":"int","value":42,"unit":"count"},
              {"type":"text","value":"same LAN"}, ... ], ... ] } ] }
    v}

    Every row has exactly as many cells as the header has columns;
    [unit] is one of {!Experiments.unit_name}'s outputs.  Emission is
    deterministic ({!Renofs_json.Json.document}, fields in the order
    above), so serial and parallel runs of the same experiments produce
    byte-identical files. *)

val emit : scale:Experiments.scale -> jobs:int -> Experiments.results list -> string
(** The whole document, newline-terminated. *)

val write_file :
  scale:Experiments.scale -> jobs:int -> path:string -> Experiments.results list -> unit

(** {2 Reading} *)

val validate : string -> (unit, string) result
(** Check a document against the schema above: required fields, row
    rectangularity, known cell types and units.  [Ok ()] means a
    conforming "renofs-bench/1" file. *)

val validate_file : string -> (unit, string) result

type diff_cell = Dnum of float * string | Dtext of string
    (** A numeric cell (int or float) with its unit, or a text cell. *)

val load_for_diff :
  string -> ((string * (string list * diff_cell list list)) list, string) result
(** Validate a file as {!validate} does and, in the same pass, flatten
    it into what diffing compares: per experiment id, in file order,
    the header and the rows of typed cells. *)

(** {2 Regression diffing ([nfsbench diff])} *)

type diff_report = {
  compared : int;  (** numeric cells judged against the tolerance *)
  regressions : string list;
      (** latency (ms/s) grew, or throughput (per_s) shrank, by more
          than the tolerance *)
  improvements : string list;  (** moved past the tolerance the good way *)
  warnings : string list;
      (** skipped material: missing experiments, shape/unit changes *)
}

val diff_files :
  tolerance:float -> string -> string -> (diff_report, string) result
(** [diff_files ~tolerance old new] compares two "renofs-bench/1" files
    cell by cell (matched by experiment id and position; [tolerance] is
    a fraction, e.g. [0.15]).  Only ms/s/per_s cells are judged; other
    units, text cells and zero baselines are informational.  [Error] is
    reserved for unreadable or non-conforming files. *)
