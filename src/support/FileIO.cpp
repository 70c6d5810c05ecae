//===- support/FileIO.cpp - Whole-file read and write -----------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/FileIO.h"

#include <cstdio>

using namespace dra;

std::optional<std::string> dra::readFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return std::nullopt;
  std::string Data;
  char Buf[4096];
  for (size_t N; (N = std::fread(Buf, 1, sizeof(Buf), F)) != 0;)
    Data.append(Buf, N);
  bool Ok = std::ferror(F) == 0;
  if (std::fclose(F) != 0)
    Ok = false;
  if (!Ok)
    return std::nullopt;
  return Data;
}

WriteResult dra::writeFile(const std::string &Path, std::string_view Data) {
  WriteResult R;
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return R;
  R.Opened = true;
  R.Ok = std::fwrite(Data.data(), 1, Data.size(), F) == Data.size() &&
         std::ferror(F) == 0;
  if (std::fclose(F) != 0)
    R.Ok = false;
  return R;
}
