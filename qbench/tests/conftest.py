import sys
from pathlib import Path

# the benchmark imports as `qbench`, the library from src/
ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
