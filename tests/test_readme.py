import re
import tempfile
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    # the ```python blocks of the README, run as written: docs that name a
    # deleted or renamed API fail here
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for code in blocks:
        scope = {}
        exec(compile(code, str(README), "exec"), scope)
    # the quick start ends with the PDE fixed point against the Riccati oracle;
    # a zero error would mean it compares at the terminal time, where both
    # sides are the terminal cost
    assert scope["rep"].converged
    assert 1e-12 < scope["err"] < 1e-2


def test_readme_example_configs_run(tmp_path):
    # each "Example config for `<subcommand>`" block, run through the CLI as
    # written: it must pass its own tolerances
    from nash_horizon.cli import main

    configs = re.findall(r"Example config for `([a-z-]+)`.*?```json\n(.*?)```",
                         README.read_text(), re.S)
    assert [c for c, _ in configs] == ["scan-horizon", "verify-decay"]
    for command, text in configs:
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / command)]) == 0


if __name__ == "__main__":
    # runnable without pytest, for an install that has only the runtime
    # dependencies
    test_readme_quick_start_runs()
    print("README quick start: OK")
    with tempfile.TemporaryDirectory() as tmp:
        test_readme_example_configs_run(Path(tmp))
    print("README example configs: OK")
