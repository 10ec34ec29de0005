let domain = (-8.0, 8.0)
let degree = 96

let sigmoid_exact x = 1.0 /. (1.0 +. exp (-.x))

let coeffs =
  lazy
    (let a, b = domain in
     Chebyshev.fit ~f:sigmoid_exact ~a ~b ~degree)

let sigmoid_dsl bld x =
  let a, b = domain in
  Chebyshev.eval_dsl bld ~coeffs:(Lazy.force coeffs) ~a ~b x

let sigmoid_clear x =
  let a, b = domain in
  Chebyshev.eval_clear ~coeffs:(Lazy.force coeffs) ~a ~b x
