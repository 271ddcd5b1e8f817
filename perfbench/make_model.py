"""Regenerate the frozen model that the ``gan-synth`` workload samples from.

The model is trained with the default ``GanConfig`` and seed 7 on the
560-row table drawn from seed 11, then written to ``data/model.json``
together with its sha256 in ``data/model.sha256``. ``gan-synth`` checks that
sha at set-up, so a changed model file fails loudly instead of silently
shifting the gate's attempt counts.

Run from the repository root::

    python3 perfbench/make_model.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import DATA_DIR, FROZEN_MODEL_SEED, FROZEN_TABLE_SEED, make_table  # noqa: E402
from twinforge.tabular import GanConfig, model_to_json, train_gan  # noqa: E402

MODEL_PATH = DATA_DIR / "model.json"
SHA_PATH = DATA_DIR / "model.sha256"


def main() -> int:
    model = train_gan(make_table(FROZEN_TABLE_SEED), GanConfig(), seed=FROZEN_MODEL_SEED)
    text = model_to_json(model).encode("utf-8")
    MODEL_PATH.write_bytes(text)
    digest = hashlib.sha256(text).hexdigest()
    SHA_PATH.write_text(digest + "\n", encoding="utf-8")
    print(f"{MODEL_PATH.relative_to(ROOT)}: {len(text)} bytes, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
