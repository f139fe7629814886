"""The README's Library example runs as written and states the numbers it gives."""

from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_states_the_numbers_it_gives():
    section = README.read_text().split("\n## Library\n", 1)[1]
    code, rest = section.split("```python\n", 1)[1].split("```\n", 1)
    text = " ".join(rest.strip().split("\n\n", 1)[0].split())   # the paragraph below, on one line
    ns = {}
    exec(code, ns)
    tl, eq, lead, pred = ns["tl"], ns["eq"], ns["lead"], ns["pred"]
    short = lambda x: f"{x:.1e}".replace("e-0", "e-")
    distance = float(np.max(np.abs(eq.theta - tl.twisted_state(1000, 5))))
    assert f"r_M ({ns['r_m']:.6f})" in code
    assert f"{distance:.3f} from the twisted state" in text
    assert f"leading eigenvalue {short(lead[0])} is near the prediction `pred` = {short(pred)}" in text
