"""Scripted stdio classifier used by the protocol and CLI tests.

Speaks the JSON-lines wire protocol: hello/predict/train. Modes:
  --memorize   learn labels from train items, predict them back (default)
  --wrong      always predict the first configured label (mostly wrong)
  --bad-hello  answer the handshake with a mismatched version
  --nan        answer every predict with a NaN score
  --foreign    answer every predict with labels outside the manifests
  --linger     keep running for a minute after stdin closes
  --list-reply answer every predict with a JSON list, not an object
  --bad-utf8   answer every predict with a line that is not UTF-8
  --deep-reply answer every predict with 100 000 nested JSON lists
  --hang       answer the handshake, then read on but never answer a predict
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
    parser.add_argument("--foreign", action="store_true")
    parser.add_argument("--linger", action="store_true")
    parser.add_argument("--list-reply", action="store_true")
    parser.add_argument("--bad-utf8", action="store_true")
    parser.add_argument("--deep-reply", action="store_true")
    parser.add_argument("--hang", action="store_true")
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
        elif op == "predict" and args.hang:
            continue
        elif op == "predict" and args.list_reply:
            reply = [reply["id"]]
        elif op == "predict" and args.deep_reply:
            sys.stdout.write("[" * 100_000 + "]" * 100_000 + "\n")
            sys.stdout.flush()
            continue
        elif op == "predict" and args.bad_utf8:
            sys.stdout.buffer.write(b'{"id": %d, "scores": {"\xff": 1.0}}\n' % reply["id"])
            sys.stdout.buffer.flush()
            continue
        elif op == "predict":
            if args.wrong:
                label = LABELS[0]
            else:
                label = memory.get(msg.get("image"), LABELS[0])
            if args.nan:
                reply["scores"] = {"Empty": float("nan"), "Fluid": 0.5}
            elif args.foreign:
                reply["scores"] = {"Foo": 0.9, "Bar": 0.9}
            else:
                reply["scores"] = scores_for(label)
        else:
            reply["error"] = f"unknown op {op!r}"
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    if args.linger:
        time.sleep(60)


if __name__ == "__main__":
    main()
