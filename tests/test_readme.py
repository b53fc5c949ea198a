"""The README's library example and CLI examples run as documented."""
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, f"{README}:Library", "exec"), namespace)
    np.testing.assert_allclose(namespace["born"].sum(axis=1), 1.0, atol=1e-12)
    stats = namespace["stats"]
    assert stats.misidentifications == 0
    assert stats.counts.sum() == namespace["problem"].n_states * stats.trials_per_state


def test_cli_examples_run(tmp_path):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    commands = [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.splitlines()
        if line.startswith("qfilter ")
    ]
    # The --export example writes the ensemble the strategies and simulate
    # examples read, under both of the file names they use.
    commands.sort(key=lambda argv: "--export" not in argv)
    assert "--export" in commands[0] and len(commands) >= 8
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for i, argv in enumerate(commands):
        result = subprocess.run(
            [sys.executable, "-m", *argv], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, f"{shlex.join(argv)}: {result.stderr}"
        if i == 0:
            exported = argv[argv.index("--export") + 1]
            shutil.copy(tmp_path / exported, tmp_path / "ensemble.json")
