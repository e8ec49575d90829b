let mbps x = x *. 1e6 /. 8.
let to_mbps r = r *. 8. /. 1e6
let ms x = x /. 1000.
let to_ms t = t *. 1000.
let kbps x = x *. 1e3 /. 8.

let bdp_bytes ~rate ~rtt = int_of_float (Float.round (rate *. rtt))

let feq a b =
  Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))
