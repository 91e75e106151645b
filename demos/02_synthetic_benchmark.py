"""The planted-structure dataset generator and the bundled benchmark.

Feature vectors follow a [shared | color | modality] layout: only the shared
block carries identity signal to both sides. Visible rows fill the color
block, infrared rows fill the modality block (scaled by the gap strength),
and grayscale rows are literal views of the visible rows with the color
block overwritten by its mean.
"""

import os
import tempfile

import numpy as np

from crossmodal.batch import FeatureLayout, grayscale_of
from crossmodal.core import RngStream
from crossmodal.synthdata import generate, load_features, make_benchmark, save_features

layout = FeatureLayout(shared_dims=3, color_dims=2, modality_dims=2)
ds = generate(n_ids=3, per_modality=2, layout=layout, gap_strength=1.5,
              noise_sigma=0.1, rng=RngStream(4))

print(f"{len(ds)} rows, dim {ds.dim}, identities {ds.identities.tolist()}")
for ident in ds.identities:
    vis = ds.features[ds.rows_of(ident, "vis")]
    ir = ds.features[ds.rows_of(ident, "ir")]
    print(f"id {ident}: vis color block {np.round(vis[0, layout.color_slice], 3)}"
          f"  ir modality block {np.round(ir[0, layout.modality_slice], 3)}")

# vis rows leave the modality block at zero, ir rows leave the color block at zero
vis_rows = ds.features[ds.modality_rows("vis")]
ir_rows = ds.features[ds.modality_rows("ir")]
assert not vis_rows[:, layout.modality_slice].any()
assert not ir_rows[:, layout.color_slice].any()

# grayscale rows pair with visible rows by position
first_vis = ds.features[ds.rows_of(0, "vis")][0]
first_gray = ds.features[ds.rows_of(0, "gray")][0]
assert np.array_equal(first_gray, grayscale_of(first_vis, layout))
print("\ngray view of the first visible row:", np.round(first_gray, 3))

# the CSV round trip is lossless (%.17g), so shipped files equal fresh draws
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "demo_feats.csv")
    save_features(ds, path)
    back = load_features(path)
assert np.array_equal(back.features, ds.features)
print("save -> load round trip: bitwise equal")

# the bundled benchmark is just fixed generator settings with split seeds
train = make_benchmark("train")
test = make_benchmark("test")
print(f"\nbenchmark: {len(train)} train rows, {len(test)} test rows, "
      f"dim {train.dim}, gap {train.gap_strength}, noise {train.noise_sigma}")
