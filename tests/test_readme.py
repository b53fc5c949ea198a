"""The README's library example runs as documented."""
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, f"{README}:Library", "exec"), namespace)
    np.testing.assert_allclose(namespace["born"].sum(axis=1), 1.0, atol=1e-12)
    stats = namespace["stats"]
    assert stats.misidentifications == 0
    assert stats.counts.sum() == namespace["problem"].n_states * stats.trials_per_state
