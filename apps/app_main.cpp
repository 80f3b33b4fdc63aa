// The main of every <dwarf>_app: EOD_APP_DWARF names its row of the Table 3
// argument table (app_table.cpp).
#include "app_common.hpp"

int main(int argc, const char** argv) {
  return eod::apps::app_main(EOD_APP_DWARF, argc, argv);
}
