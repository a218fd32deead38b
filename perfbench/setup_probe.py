"""Set-up time of one fresh process: import, config parsing, construction.

Usage: python3 perfbench/setup_probe.py SRC_DIR CONFIGS_JSON

Times the qdbar import, `parse_config` of every config text in CONFIGS_JSON
(a JSON list of strings), and family and element construction, then prints
the elapsed seconds.  numpy is imported before the clock starts: its import
time is mostly OpenBLAS starting its thread pool, which is not qdbar's code
and swings by a factor of two from one process to the next.
"""

import json
import sys
import time


def main(src, configs_path):
    with open(configs_path) as fh:
        texts = json.load(fh)
    import numpy  # noqa: F401
    sys.path.insert(0, src)
    started = time.perf_counter()
    from qdbar.cli import parse_config
    for text in texts:
        config = parse_config(text)
        config.family()
        if "element" in config.data or "elements" in config.data:
            config.element_list()
    print(repr(time.perf_counter() - started))


if __name__ == "__main__":
    main(*sys.argv[1:])
