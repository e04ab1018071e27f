"""Scripted stdio classifier used by the protocol and CLI tests.

Speaks the JSON-lines wire protocol: hello/predict/train. Modes:
  --memorize   learn labels from train items, predict them back (default)
  --wrong      always predict the first configured label (mostly wrong)
  --bad-hello  answer the handshake with a mismatched version
  --nan        answer every predict with a NaN score
  --linger     keep running for a minute after stdin closes
"""

import argparse
import json
import sys
import time

VERSION = 1
LABELS = ["Empty", "Fluid", "Heavy", "Jam"]


def scores_for(label):
    return {l: 1.0 if l == label else 0.0 for l in LABELS}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--wrong", action="store_true")
    parser.add_argument("--bad-hello", action="store_true")
    parser.add_argument("--nan", action="store_true")
    parser.add_argument("--linger", action="store_true")
    args = parser.parse_args()

    memory = {}
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            sys.stdout.write(json.dumps({"id": None, "error": "malformed JSON"}) + "\n")
            sys.stdout.flush()
            continue
        reply = {"id": msg.get("id")}
        op = msg.get("op")
        if op == "hello":
            reply["ok"] = True
            reply["version"] = VERSION + 1 if args.bad_hello else VERSION
        elif op == "train":
            for item in msg.get("items", []):
                memory[item["image"]] = item["label"]
            reply["ok"] = True
        elif op == "predict":
            if args.wrong:
                label = LABELS[0]
            else:
                label = memory.get(msg.get("image"), LABELS[0])
            reply["scores"] = {"Empty": float("nan"), "Fluid": 0.5} if args.nan else scores_for(label)
        else:
            reply["error"] = f"unknown op {op!r}"
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    if args.linger:
        time.sleep(60)


if __name__ == "__main__":
    main()
