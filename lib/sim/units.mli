(** Unit conventions and conversions.

    Throughout the code base: time is seconds ([float]), data sizes are bytes
    ([int]), and rates are bytes per second ([float]).  The paper quotes link
    rates in Mbit/s and delays in milliseconds; these helpers convert at API
    boundaries so internal code never mixes units. *)

val mbps : float -> float
(** [mbps x] is [x] Mbit/s expressed in bytes/s. *)

val to_mbps : float -> float
(** [to_mbps r] converts a rate in bytes/s to Mbit/s. *)

val ms : float -> float
(** [ms x] is [x] milliseconds in seconds. *)

val to_ms : float -> float
(** [to_ms t] converts seconds to milliseconds. *)

val kbps : float -> float
(** [kbps x] is [x] kbit/s in bytes/s. *)

val bdp_bytes : rate:float -> rtt:float -> int
(** Bandwidth-delay product in bytes for [rate] bytes/s and [rtt] seconds,
    rounded to the nearest byte. *)

val feq : float -> float -> bool
(** Approximate float equality: [|a - b| <= 1e-9 * max(1, |a|, |b|)]. *)
