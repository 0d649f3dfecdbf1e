"""Signature features for path-to-response regression.

Responses come from integrating a fixed planar field along each path; the
feature map is the truncated signature, so deeper truncations nest the
shallower ones and held-out error falls as the depth grows.
"""

import numpy as np

import sigpath as sp
from sigpath.sig_regression import evaluate

field, y0 = sp.demo_field()

train = sp.generate_dataset(field, y0, n_paths=200, segment_count=4, r=1.0,
                            noise_scale=0.0, seed=0)
held = sp.generate_dataset(field, y0, n_paths=100, segment_count=4, r=1.0,
                           noise_scale=0.0, seed=1)

print(f"{'depth':>6} {'features':>9} {'train rmse':>12} {'heldout rmse':>13}")
for depth in (1, 2, 3, 4):
    f = sp.fit(train, depth=depth)
    m = evaluate(f, train, heldout=held)
    print(f"{depth:>6} {sp.feature_count(2, depth):>9} "
          f"{m['rmse_train']:>12.3e} {m['rmse_heldout']:>13.3e}")

# a response that IS a truncated functional is recovered to rounding
target = sp.truncated_functional_LN(field, y0, 2)
responses = np.stack([target.evaluate(sp.signature(p, 2)) for p in train.paths])
realised = sp.RegressionDataset(
    segments=train.segments, features=train.features, responses=responses,
    depth=train.depth, noise_scale=0.0, seed=0,
)
fitted = sp.fit(realised, depth=2)
print("realisable weight error:", float(np.abs(fitted.weights - target.weights).max()))

# noise moves the floor but not the shape of the depth sweep
noisy = sp.generate_dataset(field, y0, n_paths=200, segment_count=4, r=1.0,
                            noise_scale=1e-3, seed=0)
for depth in (2, 4):
    f = sp.fit(noisy, depth=depth)
    m = evaluate(f, noisy, heldout=held)
    print(f"noise 1e-3, depth {depth}: heldout rmse {m['rmse_heldout']:.3e}")
